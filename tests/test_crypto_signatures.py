"""PKI + simulated signature scheme: unforgeability-in-simulation contract."""

import pytest

from repro.crypto.pki import PKI, KeyPair
from repro.crypto.signatures import Signature, sign, signed_by, verify


def test_generate_registers(pki):
    kp = pki.generate(1)
    assert pki.is_registered(kp.pk)
    assert len(pki) == 1


def test_generate_deterministic():
    a = PKI().generate(("seed", 7))
    b = PKI().generate(("seed", 7))
    assert a.pk == b.pk and a.sk == b.sk


def test_distinct_seeds_distinct_keys(pki):
    assert pki.generate(1).pk != pki.generate(2).pk


def test_repr_hides_secret(pki):
    kp = pki.generate(1)
    assert kp.sk.hex() not in repr(kp)


def test_register_conflicting_key_raises(pki):
    kp = pki.generate(1)
    with pytest.raises(ValueError):
        pki.register(KeyPair(pk=kp.pk, sk=b"different-secret-key-32-bytes!!!"))


def test_sign_verify_roundtrip(pki, keypair):
    message = ("PROPOSE", 3, ("sn", 1), b"digest")
    sig = sign(keypair, message)
    assert verify(pki, sig, message)


def test_wrong_message_fails(pki, keypair):
    sig = sign(keypair, "hello")
    assert not verify(pki, sig, "hellO")


def test_unregistered_key_fails(pki):
    foreign = KeyPair(pk="deadbeef" * 5, sk=b"s" * 32)
    sig = sign(foreign, "msg")
    assert not verify(pki, sig, "msg")


def test_signature_pins_signer(pki, keypair, keypair_b):
    sig = sign(keypair, "msg")
    assert signed_by(pki, sig, "msg", keypair.pk)
    assert not signed_by(pki, sig, "msg", keypair_b.pk)


def test_forged_tag_fails(pki, keypair):
    sig = sign(keypair, "msg")
    forged = Signature(pk=keypair.pk, tag=bytes(32))
    assert not verify(pki, forged, "msg")


def test_cross_key_forgery_fails(pki, keypair, keypair_b):
    # A signature by B presented as A's must not verify as A's statement.
    sig_b = sign(keypair_b, "msg")
    assert not signed_by(pki, sig_b, "msg", keypair.pk)


def test_mac_unknown_pk_raises(pki):
    with pytest.raises(KeyError):
        pki.mac("not-registered", b"x")


def test_fingerprint_changes_with_registry(pki):
    f0 = pki.fingerprint()
    pki.generate("new")
    assert pki.fingerprint() != f0


@pytest.mark.parametrize("seed", [1, ("node", 7)])
@pytest.mark.parametrize("message", [b"", b"sig", b"\x00" * 200])
def test_every_tag_is_plain_hmac_sha256(pki, seed, message):
    """``sign``/``sign_encoded``/``PKI.mac``/``mac_many`` and
    the VRF proof are HMAC-SHA256 of the encoded message, byte for byte
    (including the empty message), whichever hmac entry point makes them."""
    import hashlib
    import hmac

    from repro.crypto.hashing import canonical_bytes
    from repro.crypto.signatures import encode_statement, sign_encoded
    from repro.crypto.vrf import vrf_eval

    kp = pki.generate(seed)

    def reference(data):
        return hmac.new(kp.sk, data, hashlib.sha256).digest()

    assert sign_encoded(kp, message).tag == reference(message)
    assert pki.mac(kp.pk, message) == reference(message)
    fresh = PKI()
    fresh.register(kp)
    assert fresh.mac_many([kp.pk], message) == [reference(message)]
    assert encode_statement(message) == b"sig" + canonical_bytes(message)
    assert sign(kp, message).tag == reference(encode_statement(message))
    assert vrf_eval(kp, message).proof == reference(b"vrf" + canonical_bytes(message))
