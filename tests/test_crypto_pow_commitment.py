"""PoW admission puzzle and the semi-commitment scheme."""

import pytest

from repro.crypto.commitment import (
    canonical_member_list,
    semi_commitment,
    superset_consistent,
    verify_semi_commitment,
)
from repro.crypto.pow import PowPuzzle, PowSolution, expected_attempts, solve_pow, verify_pow


# -- PoW ---------------------------------------------------------------------


def test_solve_and_verify():
    puzzle = PowPuzzle(round_number=1, randomness=b"R", difficulty_bits=6)
    solution = solve_pow(puzzle, "node-pk")
    assert verify_pow(puzzle, solution)


def test_wrong_nonce_fails():
    puzzle = PowPuzzle(1, b"R", 6)
    solution = solve_pow(puzzle, "node-pk")
    assert not verify_pow(puzzle, PowSolution(pk="node-pk", nonce=solution.nonce + 10**6))


def test_solution_not_transferable():
    puzzle = PowPuzzle(1, b"R", 6)
    solution = solve_pow(puzzle, "alice")
    stolen = PowSolution(pk="bob", nonce=solution.nonce)
    # Overwhelmingly likely to fail (puzzle binds the pk).
    assert not verify_pow(puzzle, stolen)


def test_difficulty_zero_trivial():
    puzzle = PowPuzzle(1, b"R", 0)
    assert verify_pow(puzzle, solve_pow(puzzle, "x"))


def test_difficulty_out_of_range():
    with pytest.raises(ValueError):
        PowPuzzle(1, b"R", 256).target


def test_unsolvable_budget_raises():
    puzzle = PowPuzzle(1, b"R", 40)
    with pytest.raises(RuntimeError):
        solve_pow(puzzle, "x", max_iters=10)


def test_expected_attempts():
    assert expected_attempts(10) == 1024.0


def test_puzzle_binds_round_and_randomness():
    base = PowPuzzle(1, b"R", 8)
    solution = solve_pow(base, "x")
    assert not verify_pow(PowPuzzle(2, b"R", 8), solution) or not verify_pow(
        PowPuzzle(1, b"S", 8), solution
    )


@pytest.mark.parametrize(
    "puzzle, pk",
    [
        (PowPuzzle(1, b"R", 0), "x"),
        (PowPuzzle(1, b"R", 6), "node-pk"),
        (PowPuzzle(7, b"\x00" * 32, 9), "a" * 40),
        (PowPuzzle(2**40, b"", 8), ""),
    ],
)
def test_solution_is_the_first_nonce_of_the_reference_scan(puzzle, pk):
    from repro.crypto.hashing import H_int

    def reference_scan():
        nonce = 0
        while H_int("POW", pk, puzzle.round_number, puzzle.randomness, nonce) >= puzzle.target:
            nonce += 1
        return nonce

    solution = solve_pow(puzzle, pk)
    assert solution == PowSolution(pk=pk, nonce=reference_scan())
    assert verify_pow(puzzle, solution)


# -- semi-commitment -----------------------------------------------------------


MEMBERS = [("pk1", "addr1"), ("pk2", "addr2"), ("pk3", "addr3")]


def test_commitment_roundtrip():
    com = semi_commitment(MEMBERS)
    assert verify_semi_commitment(com, MEMBERS)


def test_commitment_order_invariant():
    assert semi_commitment(MEMBERS) == semi_commitment(list(reversed(MEMBERS)))


def test_commitment_binding():
    com = semi_commitment(MEMBERS)
    assert not verify_semi_commitment(com, MEMBERS[:2])
    assert not verify_semi_commitment(com, MEMBERS + [("pk4", "addr4")])


def test_canonical_list_sorted():
    assert canonical_member_list(reversed(MEMBERS)) == tuple(sorted(MEMBERS))


def test_superset_consistency():
    assert superset_consistent(MEMBERS, MEMBERS[:2])
    assert superset_consistent(MEMBERS, MEMBERS)
    assert not superset_consistent(MEMBERS[:2], MEMBERS)
