import itertools
import random

import pytest

from logzono.casestudies import (CipherInstance, INTERSECTION_SOURCE,
                                 LfsrSpec, encrypt, intersection_system,
                                 key_search, lfsr_keystream, make_instance,
                                 scaled_spec)
from logzono.dsl import parse_system, print_system
from logzono.errors import DimensionError, SearchFailed
from logzono.reach import check_containment, exact_reach, reach
from logzono.zonotope import evaluate, full_set, singleton
from logzono.gf2 import BitVec, echelon, solve_words

SPEC4 = LfsrSpec(4, (4, 3), (4,))


def oracle_lfsr(length, feedback, output, key, l_m):
    """Independent re-implementation used only to cross-check keystreams."""
    state = list(key)
    out = []
    for _ in range(l_m):
        bit = 0
        for t in output:
            bit ^= state[t - 1]
        out.append(bit)
        fb = 0
        for t in feedback:
            fb ^= state[t - 1]
        state = [fb] + state[:-1]
    return out


def test_keystream_frozen_vector():
    assert lfsr_keystream(SPEC4, [1, 0, 0, 0], 8) == [0, 0, 0, 1, 0, 0, 1, 1]


def test_keystream_matches_independent_oracle():
    rng = random.Random(7)
    # feedback taps that leave out the length, which scaled_spec never draws
    hand_made = [LfsrSpec(7, (5, 2), (1, 7)), LfsrSpec(5, (1,), (3,)),
                 LfsrSpec(9, (8, 4, 3, 1), (2, 9, 5))]
    for spec in [scaled_spec(rng.randint(3, 12)) for _ in range(30)] + hand_made:
        key = [rng.randint(0, 1) for _ in range(spec.length)]
        l_m = rng.randint(1, 3 * spec.length)
        assert lfsr_keystream(spec, key, l_m) == oracle_lfsr(
            spec.length, spec.feedback, spec.output, key, l_m)


def test_scaled_spec_lists_no_tap_twice():
    # lengths 3 and 4 once listed (3, 2, 1, 2) and (4, 3, 2, 2); the
    # repeated tap cancels in the XOR, so the keystreams are the same
    assert scaled_spec(3).feedback == (3, 1)
    assert scaled_spec(4).feedback == (4, 3)
    rng = random.Random(20)
    for length, listed in ((3, (3, 2, 1, 2)), (4, (4, 3, 2, 2))):
        spec = scaled_spec(length)
        for _ in range(50):
            key = [rng.randint(0, 1) for _ in range(length)]
            assert lfsr_keystream(spec, key, 40) == oracle_lfsr(
                length, listed, spec.output, key, 40)
    for length in range(3, 70):
        taps = scaled_spec(length).feedback
        assert len(set(taps)) == len(taps)


def test_all_zero_key_gives_all_zero_stream():
    assert lfsr_keystream(SPEC4, [0, 0, 0, 0], 12) == [0] * 12


def test_keystream_length_check():
    with pytest.raises(DimensionError):
        lfsr_keystream(SPEC4, [1, 0], 4)


def test_tap_validation():
    with pytest.raises(ValueError):
        LfsrSpec(4, (5,), (4,))
    with pytest.raises(ValueError):
        LfsrSpec(4, (), (4,))
    with pytest.raises(ValueError, match="spec feedback lists tap 3 twice"):
        LfsrSpec(4, (4, 3, 3), (4,))
    with pytest.raises(ValueError, match="spec output lists tap 4 twice"):
        LfsrSpec(4, (4, 3), (4, 1, 4))


def test_spec_json_round_trip():
    spec = scaled_spec(16)
    assert LfsrSpec.from_json_dict(spec.to_json_dict()) == spec


def test_zonotope_cells_propagate_exactly():
    """Unknown cells run through the same pipeline as ints.

    With every key cell left free the cipher cell sets must each be {0,1}
    except where the output taps cancel to a constant, which never happens
    for a single tap; and fixing the cells recovers the int path.
    """
    cells = [full_set(1)] * 4
    ks = lfsr_keystream(SPEC4, cells, 8)
    for cell in ks:
        assert evaluate(cell).words() == {0, 1}
    fixed = [singleton(BitVec(1, b)) for b in (1, 0, 0, 0)]
    ks2 = lfsr_keystream(SPEC4, fixed, 8)
    assert [c.center.word for c in ks2] == [0, 0, 0, 1, 0, 0, 1, 1]


def test_cipher_instance_validation():
    with pytest.raises(DimensionError):
        CipherInstance((0, 1), (0,))


def test_key_recovery_small():
    rng = random.Random(11)
    for length in (4, 8, 12):
        spec = scaled_spec(length)
        for _ in range(5):
            key = tuple(rng.randint(0, 1) for _ in range(length))
            inst = make_instance(spec, key, [rng.randint(0, 1)
                                             for _ in range(4 * length)])
            found = key_search(spec, inst)
            assert encrypt(spec, found, inst.message) == inst.cipher


def test_pruning_never_drops_true_seed():
    """Containment pruning is sound: the real key's seed always survives."""
    rng = random.Random(13)
    spec = scaled_spec(8)
    for _ in range(10):
        key = tuple(rng.randint(0, 1) for _ in range(8))
        inst = make_instance(spec, key, [rng.randint(0, 1) for _ in range(32)])
        verdicts = {}
        key_search(spec, inst, on_comb=lambda seed, pruned:
                   verdicts.setdefault(seed, pruned))
        assert verdicts[key[:2]] is False


def test_search_failed_on_impossible_cipher():
    """No 4-bit key produces an all-ones 16-bit keystream for these taps:
    the right-hand-side bit becomes a pivot, so every seed is pruned."""
    inst = CipherInstance(tuple([0] * 16), tuple([1] * 16))
    rows = [cell | 1 << 4 for cell in lfsr_keystream(SPEC4, [1, 2, 4, 8], 16)]
    assert 1 << 4 in echelon(rows)[1]
    for seed_width in (0, 2, 4):
        reported = []
        with pytest.raises(SearchFailed):
            key_search(SPEC4, inst, seed_width=seed_width,
                       on_comb=lambda seed, pruned: reported.append((seed, pruned)))
        assert reported == [(seed, True) for seed in
                            itertools.product((0, 1), repeat=seed_width)]


def test_seed_width_bounds():
    inst = make_instance(SPEC4, (1, 0, 0, 0), [0] * 8)
    with pytest.raises(ValueError):
        key_search(SPEC4, inst, seed_width=5)
    assert key_search(SPEC4, inst, seed_width=0) == (1, 0, 0, 0)


def _consistent_keys(spec, inst):
    """Brute force: every key whose encryption of the message is the cipher."""
    target = [m ^ c for m, c in zip(inst.message, inst.cipher)]
    return [key for key in itertools.product((0, 1), repeat=spec.length)
            if lfsr_keystream(spec, key, inst.l_m) == target]


def test_key_search_matches_brute_force():
    """SearchFailed exactly when no key re-encrypts; else a key that does,
    and the true key whenever it is the only one."""
    rng = random.Random(21)
    seen = {"none": 0, "unique": 0, "several": 0}
    for length in range(3, 11):
        spec = scaled_spec(length)
        for l_m in (0, length // 2, length, 4 * length):
            for drawn in (False, True):
                message = [rng.randint(0, 1) for _ in range(l_m)]
                if drawn:
                    cipher = tuple(rng.randint(0, 1) for _ in range(l_m))
                    inst = CipherInstance(tuple(message), cipher)
                else:
                    key = tuple(rng.randint(0, 1) for _ in range(length))
                    inst = make_instance(spec, key, message)
                keys = _consistent_keys(spec, inst)
                if not keys:
                    seen["none"] += 1
                    with pytest.raises(SearchFailed):
                        key_search(spec, inst)
                    continue
                found = key_search(spec, inst)
                assert encrypt(spec, found, inst.message) == inst.cipher
                if len(keys) == 1:
                    seen["unique"] += 1
                    assert found == keys[0]
                else:
                    seen["several"] += 1
    assert all(seen.values()), seen


def test_full_rank_prunes_every_seed_but_the_true_one():
    rng = random.Random(23)
    spec = scaled_spec(8)
    for seed_width in (1, 2, 3, 8):
        for _ in range(4):
            key = tuple(rng.randint(0, 1) for _ in range(8))
            inst = make_instance(spec, key, [rng.randint(0, 1)
                                             for _ in range(32)])
            assert _consistent_keys(spec, inst) == [key]   # full rank
            reported = []
            found = key_search(spec, inst, seed_width=seed_width,
                               on_comb=lambda seed, pruned:
                               reported.append((seed, pruned)))
            assert found == key
            true_seed = key[:seed_width]
            seeds = list(itertools.product((0, 1), repeat=seed_width))
            tried = seeds[:seeds.index(true_seed) + 1]
            assert reported == [(seed, seed != true_seed) for seed in tried]


def test_seed_width_equal_to_key_length():
    key = (0, 1, 1, 0)
    inst = make_instance(SPEC4, key, [1, 0, 1, 1, 0, 0, 1, 0])
    assert key_search(SPEC4, inst, seed_width=4) == key
    assert key_search(SPEC4, CipherInstance((), ()), seed_width=4) == (0,) * 4
    with pytest.raises(SearchFailed):
        key_search(SPEC4, CipherInstance(tuple([0] * 16), tuple([1] * 16)),
                   seed_width=4)


def _per_combination_search(spec, inst, seed_width, on_comb):
    """Oracle: rebuild the keystream and solve the system for each seed."""
    free = spec.length - seed_width
    generators = tuple(2 << j for j in range(free))
    target = [m ^ c for m, c in zip(inst.message, inst.cipher)]
    for comb in range(1 << seed_width):
        seed = tuple(comb >> (seed_width - 1 - i) & 1 for i in range(seed_width))
        cells = lfsr_keystream(spec, seed + generators, inst.l_m)
        witness = solve_words([(cell >> 1) | ((cell & 1) ^ t) << free
                               for cell, t in zip(cells, target)], free)
        on_comb(seed, witness is None)
        if witness is None:
            continue
        key = seed + tuple(witness >> j & 1 for j in range(free))
        if encrypt(spec, key, inst.message) == inst.cipher:
            return key
    raise SearchFailed("no key")


def _search_outcome(search, spec, inst, seed_width):
    reported = []
    try:
        key = search(spec, inst, seed_width=seed_width,
                     on_comb=lambda seed, pruned: reported.append((seed, pruned)))
    except SearchFailed:
        key = None
    return key, reported


def test_key_search_matches_per_combination_solve():
    """One elimination per search gives the same key (the same witness when
    several keys fit), the same SearchFailed cases and the same on_comb
    reports as one solve per seed combination."""
    rng = random.Random(31)
    outcomes = {"failed": 0, "found": 0}
    for length in range(3, 13):
        spec = scaled_spec(length)
        for seed_width in sorted({0, 1, 2, 3, length}):
            for l_m in (0, length // 2, length - 1, length, 4 * length):
                for from_key in (True, False):
                    message = [rng.randint(0, 1) for _ in range(l_m)]
                    if from_key:
                        key = tuple(rng.randint(0, 1) for _ in range(length))
                        inst = make_instance(spec, key, message)
                    else:
                        inst = CipherInstance(tuple(message), tuple(
                            rng.randint(0, 1) for _ in range(l_m)))
                    expected = _search_outcome(_per_combination_search,
                                               spec, inst, seed_width)
                    assert _search_outcome(key_search, spec, inst,
                                           seed_width) == expected
                    outcomes["failed" if expected[0] is None else "found"] += 1
    assert all(outcomes.values()), outcomes


def test_intersection_source_parses_and_round_trips():
    sys_ = intersection_system()
    assert sys_.state_vars == ("p1", "p2", "p3", "p4", "c1", "c2", "c3", "c4")
    assert sys_.horizon == 10
    assert parse_system(print_system(sys_)) == sys_


def test_intersection_frozen_reach_values():
    sys_ = intersection_system()
    rz = reach(sys_, 10, "zonotope")
    re_ = reach(sys_, 10, "explicit")
    assert [s.size for s in rz.steps] == [12, 13] + [14] * 9
    assert [s.size for s in re_.steps] == [12, 13] + [14] * 9
    assert [s.joint_count for s in re_.steps] == [16, 24] + [36] * 9
    rep = check_containment(rz, re_)
    assert rep.ok and rep.max_surplus == 0


def test_intersection_two_vehicles_can_pass_together():
    """The protocol does not enforce mutual exclusion of the p flags.

    p1 starts at 1 while p2 and p4 are free, so the initial set already
    holds two-high states; p3 joins p1 from step 2 on. Frozen counts from
    the brute-force joint sets pin this behaviour down.
    """
    sets = exact_reach(intersection_system(), 3)

    def n_two_high(s):
        return sum(1 for w in s.words()
                   if bin(w & 0b1111).count("1") >= 2)

    assert [n_two_high(s) for s in sets] == [12, 0, 4, 4]


def test_intersection_source_constant():
    assert "horizon 10;" in INTERSECTION_SOURCE
    assert intersection_system() == parse_system(INTERSECTION_SOURCE)


def test_shipped_system_file_matches_embedded_source():
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "systems" / "intersection.lbn"
    assert path.read_text() == INTERSECTION_SOURCE
