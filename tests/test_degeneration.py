import json
import random
import tracemalloc

import pytest

from borderlab import (
    PlacementError,
    PrimeField,
    QQ,
    Tensor,
    build_planted_tensor,
    build_pyramid,
    certify_lower_bound,
    jacobian_dominance_rank,
    limit_at_zero,
    pyramid_size,
    recheck_certificate,
    recognize_unit_tensor,
)
from borderlab import linalg
from borderlab.cli import main
from borderlab.degeneration import (
    _block_at,
    block_start,
    default_rank,
    fit_bound,
    limit_agrees,
    packing_end,
    restriction_agrees,
    unit_cover_holds,
)

from conftest import (
    WeightProfile,
    block_placements,
    cover_size,
    elimination_rank,
    enumerate_pyramid,
    oracle_limit_agrees,
    pyramid_weight_profile,
    slice_scan_cover_holds,
    unit_tensor,
)
from paper_claims import hypercube_dichotomy, is_downward_closed, min_slice_cover


# ---------------------------------------------------------------------------
# the doubling profile as exact weights (the test oracle)
# ---------------------------------------------------------------------------

def test_profile_9_3_third_factor():
    profile = pyramid_weight_profile(9, 3)
    assert profile.weights[2] == (-16, -8, -4, 0, 0, 0, 0, 0, 0)
    assert profile.weights[0] == tuple(2 ** j for j in range(1, 10))
    assert profile.weights[0] == profile.weights[1]


def test_profile_smallest():
    # third-factor weight -2^(r-l+2) = -4; the corner 2 + 2 - 4 = 0 is the
    # whole zero locus, which is what makes S nonzero at this size
    profile = pyramid_weight_profile(1, 1)
    assert profile.weights == ((2,), (2,), (-4,))


def test_profile_monotone():
    for n in (1, 2, 5, 17, 40, 64):
        for r in (1, n // 2 or 1, n):
            profile = pyramid_weight_profile(n, r)
            for ws in profile.weights:
                assert all(ws[i] <= ws[i + 1] for i in range(len(ws) - 1))


def test_profile_validation():
    with pytest.raises(ValueError, match=r"need 1 <= r <= n, got r=4, n=3"):
        pyramid_weight_profile(3, 4)
    # the closed form refuses the same (n, r) with the same message
    for r in (0, 4):
        with pytest.raises(ValueError, match=rf"need 1 <= r <= n, got r={r}, n=3"):
            build_pyramid(3, r)
    with pytest.raises(ValueError):
        WeightProfile(dims=(2,), weights=((3, 1),))


# ---------------------------------------------------------------------------
# the pyramid, in closed form
# ---------------------------------------------------------------------------

def corners(r):
    """The zero-weight positions ``(r-l+1, r-l+1, l)`` of the rank-``r`` pyramid."""
    return {(r - l + 1, r - l + 1, l) for l in range(1, r + 1)}


def test_pyramid_corners_r4():
    pattern = build_pyramid(6, 4)
    assert corners(pattern.r) == {(4, 4, 1), (3, 3, 2), (2, 2, 3), (1, 1, 4)}
    assert enumerate_pyramid(pyramid_weight_profile(6, 4)).zero_set == corners(pattern.r)


def test_pyramid_size_r3():
    pattern = build_pyramid(9, 3)
    assert pattern.size == 14 == pyramid_size(3) == len(pattern.positions)


def test_pyramid_r1():
    pattern = build_pyramid(1, 1)
    assert pattern.positions == {(1, 1, 1)} == corners(pattern.r)


def closed_form_steps(r):
    """The layers of the rank-``r`` pyramid: layer ``l`` is a square of side ``r - l + 1``."""
    return tuple((r - l + 1,) * (r - l + 1) for l in range(1, r + 1))


def test_pyramid_closed_form_grid():
    # the exact weights, enumerated by bisection, give the closed form on
    # every (n, r), fitting or not
    for n, r in [(n, r) for n in range(1, 33) for r in range(1, n + 1)] + [(48, 10), (64, 13), (64, 64)]:
        oracle = enumerate_pyramid(pyramid_weight_profile(n, r))
        pattern = build_pyramid(n, r)
        assert oracle.steps == closed_form_steps(r), (n, r)
        assert oracle.zero_set == corners(r), (n, r)
        assert sum(map(sum, oracle.steps)) == pattern.size, (n, r)
        if r <= 12:
            assert oracle.positions == pattern.positions, (n, r)


def test_pyramid_matches_brute_force_on_random_profiles():
    # the oracle's bisection stops early; it is compared with a scan over
    # every (j, k, l) on profiles that are not the doubling one
    rng = random.Random(61)
    for _ in range(400):
        dims = tuple(rng.randint(0, 6) for _ in range(3))
        weights = tuple(tuple(sorted(rng.randint(-6, 6) for _ in range(n))) for n in dims)
        pattern = enumerate_pyramid(WeightProfile(dims=dims, weights=weights))
        a1, a2, a3 = weights
        grid = [
            (j, k, l)
            for j in range(1, dims[0] + 1)
            for k in range(1, dims[1] + 1)
            for l in range(1, dims[2] + 1)
        ]
        total = lambda pos: a1[pos[0] - 1] + a2[pos[1] - 1] + a3[pos[2] - 1]
        assert pattern.positions == {pos for pos in grid if total(pos) <= 0}
        assert pattern.zero_set == {pos for pos in grid if total(pos) == 0}


def test_pyramid_membership_and_size_are_arithmetic():
    # contains and size read (n, r); they must agree with the positions
    for n in range(1, 9):
        for r in range(1, n + 1):
            pattern = build_pyramid(n, r)
            positions = pattern.positions
            assert pattern.size == len(positions)
            box = [(j, k, l) for j in range(n + 2) for k in range(n + 2) for l in range(n + 2)]
            assert {pos for pos in box if pattern.contains(pos)} == positions
            assert corners(r) <= positions
    # the pattern is (n, r) alone: a rank far too large to fit costs nothing
    pattern = build_pyramid(10**6, 10**6)
    assert pattern.size == pyramid_size(10**6)
    assert pattern.contains((1, 1, 10**6)) and not pattern.contains((2, 1, 10**6))


def test_pyramid_downward_closed():
    pattern = build_pyramid(9, 3)
    assert is_downward_closed(pattern.positions, 3)


def limit_mutants(t_tilde, s_tensor, r, rng):
    """``(kind, T~ mutant, S mutant)``: a nonzero added on the pyramid off its
    corners (to T~ alone, and to both tensors), a corner set to a value
    other than 1, and a nonzero added off the pyramid."""
    field = t_tilde.field
    n = t_tilde.dims[0]
    pattern = build_pyramid(n, r)
    base, s_base = dict(t_tilde.support()), dict(s_tensor.support())
    inner = sorted(pattern.positions - corners(pattern.r))
    l = rng.randint(1, r)
    corner = (r - l + 1, r - l + 1, l)
    while True:
        outside = tuple(rng.randint(1, n) for _ in range(3))
        if not pattern.contains(outside):
            break
    value = field.from_int(rng.choice([-3, -1, 2, 5]))
    mutants = [
        ("corner", base | {corner: value}, s_base),
        ("outside", base | {outside: value}, s_base),
    ]
    if inner:
        pos = rng.choice(inner)
        mutants.append(("inner", base | {pos: value}, s_base))
        mutants.append(("inner-shared", base | {pos: value}, s_base | {pos: value}))
    return [
        (kind, Tensor(field, t_tilde.dims, t), Tensor(field, t_tilde.dims, s))
        for kind, t, s in mutants
    ]


def test_closed_form_matches_the_weight_oracle():
    # every fitting (n, r) with n <= 60 and a seeded sample up to n = 150:
    # the pattern and the limit verdict read from (n, r) equal what the
    # exact weights 2^1 ... 2^n give through limit_at_zero, on (T~, S) and
    # on their seeded mutants
    rng = random.Random(65)
    pairs = fitting_pairs(60)
    pairs += rng.sample([pair for pair in fitting_pairs(150) if pair[0] > 60], 15)
    verdicts = set()
    for n, r in pairs:
        profile = pyramid_weight_profile(n, r)
        oracle = enumerate_pyramid(profile)
        pattern = build_pyramid(n, r)
        positions = oracle.positions
        assert pattern.positions == positions and pattern.size == len(positions), (n, r)
        assert corners(r) == oracle.zero_set, (n, r)
        shell = [(j, k, l) for l in range(1, r + 2) for k in range(1, r + 2) for j in range(1, r + 2)]
        assert all(pattern.contains(pos) == (pos in positions) for pos in shell), (n, r)
        t_tilde, s_tensor = build_planted_tensor(QQ, n, r)
        assert limit_agrees(t_tilde, s_tensor, pattern) and oracle_limit_agrees(t_tilde, s_tensor, r), (n, r)
        for kind, mutant, s_mutant in limit_mutants(t_tilde, s_tensor, r, rng):
            closed = limit_agrees(mutant, s_mutant, pattern)
            assert closed == oracle_limit_agrees(mutant, s_mutant, r), (n, r, kind)
            assert closed == (kind == "outside"), (n, r, kind)
            verdicts.add((kind, closed))
    assert verdicts == {("corner", False), ("inner", False), ("inner-shared", False), ("outside", True)}


# ---------------------------------------------------------------------------
# the planted tensor
# ---------------------------------------------------------------------------

def test_planted_tensor_9_3_layout():
    t_tilde, s_tensor = build_planted_tensor(QQ, 9, 3)
    placements = block_placements(3)
    spots = {(p.s, p.layer, p.axis, p.start) for p in placements}
    assert spots == {(0, 3, "j", 4), (1, 2, "k", 4), (2, 1, "j", 5)}
    assert sorted(pos for pos, _ in s_tensor.support()) == [(1, 1, 3), (2, 2, 2), (3, 3, 1)]
    pattern = build_pyramid(9, 3)
    assert restriction_agrees(t_tilde, s_tensor, pattern)
    # identity blocks land where the placements say
    entries = dict(t_tilde.support())
    assert entries.get((4, 1, 3), QQ.zero()) == QQ.one()
    assert entries.get((1, 4, 2), QQ.zero()) == QQ.one() and entries.get((2, 5, 2), QQ.zero()) == QQ.one()
    assert entries.get((1, 5, 2), QQ.zero()) == QQ.zero()  # off-diagonal of the identity block
    assert all(entries.get((5 + i, 1 + i, 1), QQ.zero()) == QQ.one() for i in range(3))


def test_planted_tensor_fit_boundaries():
    # exactly at the boundary the greedy packing succeeds
    for n, r in ((16, 5), (25, 7), (64, 13)):
        t_tilde, _ = build_planted_tensor(QQ, n, r)
        placements = block_placements(r)
        assert len(placements) == r
        for p in placements:
            assert p.interval[1] <= n
        assert packing_end(r) <= n
        assert jacobian_dominance_rank(t_tilde, build_pyramid(n, r)) == pyramid_size(r)
    with pytest.raises(PlacementError) as err:
        build_planted_tensor(QQ, 10, 4)
    assert "(r+3)^2/4" in str(err.value)
    assert fit_bound(4) == 13


def test_planted_intervals_disjoint():
    placements = block_placements(13)
    for axis in ("j", "k"):
        spans = sorted(p.interval for p in placements if p.axis == axis)
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            assert b1 < a2
        assert all(a >= 14 for a, _ in spans)  # packed from r+1


def test_the_packing_in_closed_form_matches_the_greedy_loop():
    # block_start and packing_end against the greedy loop for every r < 400;
    # the inverse at each block's first and last index, and at every index
    # of the packing for a few r (it reads only c - r - 1, so r = 399
    # covers every offset the smaller r use)
    for r in range(1, 400):
        placements = block_placements(r)
        assert [block_start(r, p.s) for p in placements] == [p.start for p in placements], r
        assert packing_end(r) == max(p.interval[1] for p in placements), r
        whole = r in (1, 2, 3, 10, 41, 399)
        for p in placements:
            offsets = range(p.s + 1) if whole else {0, p.s}
            for i in offsets:
                assert _block_at(r, p.start + i, p.axis == "j") == (p.s, i), (r, p, i)
        for first_axis in (True, False):
            ends = [p.interval[1] for p in placements if (p.axis == "j") == first_axis]
            past = max(ends, default=r) + 1
            assert _block_at(r, past, first_axis)[0] >= r, (r, first_axis)


def test_the_packing_ends_two_short_of_the_fit_bound():
    # the fit condition 4n >= (r+3)^2 leaves room for every block, with two to spare
    assert all(packing_end(r) <= fit_bound(r) - 2 for r in range(1, 10**5))
    assert [fit_bound(r) - packing_end(r) for r in range(1, 6)] == [2, 3, 2, 3, 2]


def test_limit_of_planted_tensor_is_diagonal():
    for n, r in ((9, 3), (16, 5)):
        field = PrimeField(101)
        t_tilde, s_tensor = build_planted_tensor(field, n, r)
        lam = pyramid_weight_profile(n, r).subgroup(field)
        assert limit_at_zero(lam, t_tilde) == s_tensor
        assert recognize_unit_tensor(s_tensor) == r


# ---------------------------------------------------------------------------
# Jacobian rank
# ---------------------------------------------------------------------------

def test_jacobian_rank_9_3():
    field = PrimeField(1000003)
    t_tilde, _ = build_planted_tensor(field, 9, 3)
    pattern = build_pyramid(9, 3)
    assert jacobian_dominance_rank(t_tilde, pattern) == 14


def test_jacobian_rank_over_rationals():
    t_tilde, _ = build_planted_tensor(QQ, 9, 3)
    pattern = build_pyramid(9, 3)
    assert jacobian_dominance_rank(t_tilde, pattern) == 14


def test_jacobian_rank_without_blocks_drops():
    field = PrimeField(1000003)
    for n, r in ((9, 3), (8, 2)):
        _, s_tensor = build_planted_tensor(field, n, r)
        pattern = build_pyramid(n, r)
        assert jacobian_dominance_rank(s_tensor, pattern) < pattern.size
        assert elimination_rank(s_tensor, pattern, field) < pattern.size


def test_jacobian_rank_r1_diagonal_only():
    # S alone has full rank 1 (the column E_11 of factor 1), but not the
    # cover, whose named column is E_12: no rank is claimed
    field = QQ
    _, s_tensor = build_planted_tensor(field, 4, 1)
    pattern = build_pyramid(4, 1)
    assert jacobian_dominance_rank(s_tensor, pattern) == 0 < pattern.size
    assert elimination_rank(s_tensor, pattern, field) == 1


def test_deleting_one_block_drops_rank():
    field = PrimeField(1000003)
    n, r = 9, 3
    t_tilde, _ = build_planted_tensor(field, n, r)
    pattern = build_pyramid(n, r)
    dropped = 0
    for block in block_placements(r):
        entries = {}
        for pos, v in t_tilde.support():
            j, k, l = pos
            if l == block.layer:
                lo, hi = block.interval
                if block.axis == "j" and lo <= j <= hi and 1 <= k <= block.s + 1:
                    continue
                if block.axis == "k" and lo <= k <= hi and 1 <= j <= block.s + 1:
                    continue
            entries[pos] = v
        stripped = Tensor(field, t_tilde.dims, entries)
        assert jacobian_dominance_rank(stripped, pattern) < pattern.size
        if elimination_rank(stripped, pattern, field) < pattern.size:
            dropped += 1
    assert dropped >= 1


def fitting_pairs(n_max):
    return [(n, r) for n in range(4, n_max + 1) for r in range(1, default_rank(n) + 1)]


def test_unit_cover_holds_on_every_fitting_size():
    field = PrimeField(1000003)
    pairs = fitting_pairs(150)
    assert len(pairs) > 1900
    for n, r in pairs:
        t_tilde, _ = build_planted_tensor(field, n, r)
        pattern = build_pyramid(n, r)
        assert unit_cover_holds(t_tilde, pattern), (n, r)
        assert jacobian_dominance_rank(t_tilde, pattern) == pattern.size == pyramid_size(r)


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)], ids=["Q", "Fp"])
def test_cover_rank_matches_elimination_on_a_sample(field):
    rng = random.Random(63)
    for n, r in rng.sample(fitting_pairs(40), 12) + [(16, 5), (36, 9)]:
        t_tilde, _ = build_planted_tensor(field, n, r)
        pattern = build_pyramid(n, r)
        assert jacobian_dominance_rank(t_tilde, pattern) == elimination_rank(t_tilde, pattern, field)


def block_mutants(t_tilde, r, rng):
    """``(kind, mutant)`` for one drawn block entry: zeroed, set to 2, and a
    1 added to its cover column's slice on a line whose row 1 lies in P.

    The entry is not the block's last diagonal entry, whose row a corner of
    ``S`` also covers, so zeroing it drops the rank.
    """
    placement = rng.choice([p for p in block_placements(r) if p.s >= 1])
    i = rng.randrange(placement.s)
    other = rng.choice([l for l in range(1, r + 1) if l != placement.layer])
    if placement.axis == "j":
        cell = (placement.start + i, 1 + i, placement.layer)
        extra = (placement.start + i, 1, other)
    else:
        cell = (1 + i, placement.start + i, placement.layer)
        extra = (1, placement.start + i, other)
    field = t_tilde.field
    base = dict(t_tilde.support())
    mutants = (
        ("zeroed", {pos: v for pos, v in base.items() if pos != cell}),
        ("doubled", base | {cell: field.from_int(2)}),
        ("crowded", base | {extra: field.one()}),
    )
    return [(kind, Tensor(field, t_tilde.dims, entries)) for kind, entries in mutants]


@pytest.mark.parametrize("field", [QQ, PrimeField(1000003)], ids=["Q", "Fp"])
def test_mutants_break_the_cover_and_fall_back_to_elimination(field):
    # without the cover no rank is claimed; elimination, the oracle, gives
    # the true rank: short for a zeroed entry, full for the other two, so
    # the cover is sufficient for full rank but not necessary
    rng = random.Random(64)
    blocky = [(n, r) for n, r in fitting_pairs(30) if r >= 2]
    for n, r in [(9, 3), (16, 5), (25, 7), (36, 9)] + rng.sample(blocky, 6):
        t_tilde, _ = build_planted_tensor(field, n, r)
        pattern = build_pyramid(n, r)
        for kind, mutant in block_mutants(t_tilde, r, rng):
            assert not unit_cover_holds(mutant, pattern), (n, r, kind)
            assert jacobian_dominance_rank(mutant, pattern) == 0 < pattern.size, (n, r, kind)
            full = elimination_rank(mutant, pattern, field) == pattern.size
            assert full == (kind != "zeroed"), (n, r, kind)


def cover_mutants(t_tilde, r, rng):
    """``(kind, mutant)``: one entry dropped, one set to 2, a 1 added in the
    reach of a drawn block slice, and a 1 added at a drawn position."""
    field = t_tilde.field
    base = dict(t_tilde.support())
    n = t_tilde.dims[0]
    cell = rng.choice(sorted(base))
    p = rng.choice(block_placements(r))
    b = p.start + rng.randrange(p.s + 1)
    l = rng.randrange(1, r + 1)
    line = rng.randrange(1, r - l + 2)
    reach = (b, line, l) if p.axis == "j" else (line, b, l)
    anywhere = tuple(rng.randrange(1, n + 1) for _ in range(3))
    mutants = (
        ("dropped", {pos: v for pos, v in base.items() if pos != cell}),
        ("two", base | {cell: field.from_int(2)}),
        ("in-reach", base | {reach: field.one()}),
        ("anywhere", base | {anywhere: field.one()}),
    )
    return [(kind, Tensor(field, t_tilde.dims, entries)) for kind, entries in mutants]


def test_the_one_pass_cover_matches_the_slice_scan():
    # every fitting (n, r) with n <= 60, on T~, on S and on seeded mutants of
    # T~: the closed form decides the cover as the greedy slice scan does
    rng = random.Random(66)
    verdicts = set()
    for n, r in fitting_pairs(60):
        t_tilde, s_tensor = build_planted_tensor(QQ, n, r)
        pattern = build_pyramid(n, r)
        cases = [("planted", t_tilde), ("unit", s_tensor)] + cover_mutants(t_tilde, r, rng)
        for kind, tensor in cases:
            held = unit_cover_holds(tensor, pattern)
            assert held == slice_scan_cover_holds(tensor, pattern), (n, r, kind)
            verdicts.add((kind, held))
    assert {("planted", True), ("unit", False), ("dropped", False), ("two", False)} <= verdicts
    assert {("in-reach", True), ("in-reach", False), ("anywhere", True), ("anywhere", False)} <= verdicts


def cover_columns(r):
    """``{row: (factor, a, b)}``: the matrix unit ``E_{a,b}`` the cover names for each pyramid row."""
    named = {}
    for p in block_placements(r):
        side = r - p.layer + 1
        for j in range(1, side + 1):
            for k in range(1, side + 1):
                row = (j, k, p.layer)
                named[row] = (1, j, p.start + k - 1) if p.axis == "j" else (2, k, p.start + j - 1)
    return named


def test_the_cover_takes_only_upper_triangular_columns():
    # the column E_{a,b} named for row (j, k, l) has a <= r - l + 1 < r + 1
    # <= b, so the cover never names a column below the diagonal, and
    # distinct rows name distinct columns
    for r in range(1, 30):
        named = cover_columns(r)
        assert len(named) == pyramid_size(r) == len(set(named.values()))
        assert all(a < b for _, a, b in named.values()), r
    # on the planted tensor each named column, built from its definition
    # and restricted to P, is its row with entry 1
    for n, r in ((9, 3), (16, 5), (36, 9), (64, 13)):
        t_tilde, _ = build_planted_tensor(QQ, n, r)
        pattern = build_pyramid(n, r)
        entries = dict(t_tilde.support())
        for row, (factor, a, b) in cover_columns(r).items():
            if factor == 1:
                column = {(a, k, l): v for (j, k, l), v in entries.items() if j == b and pattern.contains((a, k, l))}
            else:
                column = {(j, a, l): v for (j, k, l), v in entries.items() if k == b and pattern.contains((j, a, l))}
            assert column == {row: QQ.one()}, (n, r, row)


def verify_with_mutated_block(tmp_path, capsys, mutate):
    """Certify n = 16, let ``mutate`` change T~'s entries off the pyramid, and verify.

    The rank clause alone must fail: the restriction to P and the limit
    are untouched.
    """
    path = tmp_path / "cert.json"
    assert main(["certify", "--n", "16", "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    entries = obj["TTilde"]["entries"]
    obj["TTilde"]["entries"] = mutate(entries)
    assert obj["TTilde"]["entries"] != entries
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "jacobian-rank: FAILED" in out
    assert "restriction: ok" in out and "limit: ok" in out


def test_a_zeroed_block_entry_fails_verify(tmp_path, capsys):
    # the size-2 block of layer 4 starts at (1, 6, 4)
    verify_with_mutated_block(tmp_path, capsys, lambda entries: [e for e in entries if e["idx"] != [1, 6, 4]])


@pytest.mark.parametrize(
    "mutate",
    [
        # the block entry at (1, 6, 4) set to 2: still invertible, but not a unit column
        lambda entries: [dict(e, value="2") if e["idx"] == [1, 6, 4] else e for e in entries],
        # a 1 at (1, 6, 1) in the slice of the cover column E_{1,6}, on the
        # line k = 6 of layer 1, whose row (1, 1, 1) lies in P
        lambda entries: entries + [{"idx": [1, 6, 1], "value": "1"}],
    ],
    ids=["block-entry-2", "extra-in-cover-slice"],
)
def test_a_non_unit_cover_column_fails_verify(tmp_path, capsys, mutate):
    # elimination finds full rank on both, but without the cover no rank is claimed
    verify_with_mutated_block(tmp_path, capsys, mutate)


def spy_on_sparse_rank(monkeypatch):
    calls = []
    kernel = linalg.sparse_rank

    def spy(*args, **kwargs):
        calls.append(args[0])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(linalg, "sparse_rank", spy)
    return calls


def test_default_certify_and_verify_never_eliminate(tmp_path, monkeypatch, capsys):
    calls = spy_on_sparse_rank(monkeypatch)
    path = tmp_path / "cert.json"
    for n in ("64", "49"):
        assert main(["certify", "--n", n, "--out", str(path)]) == 0
        assert main(["verify", str(path)]) == 0
    assert calls == []


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certify_and_recheck_at_1024_stay_small():
    # the pyramid is kept by its layers and the rank by its cover: no
    # |P| = 39 711 position tuples, dicts or elimination columns
    cert = certify_lower_bound(1024)
    assert cert.certified and cert.pyramid_size == pyramid_size(61)
    assert traced_peak(certify_lower_bound, 1024) < 4 * 2**20
    assert traced_peak(recheck_certificate, cert) < 4 * 2**20


def test_certify_and_recheck_for_a_large_n_and_a_small_r_stay_small():
    # no weight is built: the exact doubling profile at n = 30 000 would
    # hold 2^1 ... 2^30000 on two factors, about 60 MB
    cert = certify_lower_bound(30_000, 5)
    assert cert.certified
    assert all(ok for _, ok, _ in recheck_certificate(cert))
    assert traced_peak(certify_lower_bound, 30_000, 5) < 2**20
    assert traced_peak(recheck_certificate, cert) < 2**20


@pytest.mark.parametrize("verdict", ["Certified", "Inconclusive"])
def test_recheck_of_a_rank_that_does_not_fit_stays_small(verdict):
    # a certificate naming r = n costs no r^2 pyramid positions and no r
    # block placements; the blocks cannot fit, and the verdict clause holds
    # exactly when the stored verdict owns up to the failures
    for n in (2000, 10**6):
        cert = certify_lower_bound(n, 5)._replace(r=n, recipe=(n, n), verdict=verdict)
        results = recheck_certificate(cert)
        by_clause = {clause: ok for clause, ok, _ in results}
        assert by_clause["profile"] and by_clause["pyramid"] is False, n
        assert by_clause["placements"] is False, n
        assert by_clause["verdict"] is (verdict == "Inconclusive"), n
        assert traced_peak(recheck_certificate, cert) < 2**20, n


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_certify_9():
    cert = certify_lower_bound(9)
    assert cert.verdict == "Certified"
    assert (cert.r, cert.jacobian_rank, cert.pyramid_size) == (3, 14, 14)
    assert cert.recipe == (9, 3)


def test_certify_8_default_rank():
    assert default_rank(8) == 2
    cert = certify_lower_bound(8)
    assert cert.verdict == "Certified"
    assert (cert.r, cert.pyramid_size) == (2, 5)


def test_certify_49():
    cert = certify_lower_bound(49)
    assert cert.verdict == "Certified"
    assert (cert.r, cert.jacobian_rank) == (11, 506)


def test_certify_over_rationals():
    cert = certify_lower_bound(9)
    assert cert.verdict == "Certified"
    assert cert.t_tilde.field == cert.s_tensor.field == QQ


def test_certify_rejects_tiny_n_without_r():
    # below n = 4 no rank fits: the default r = 1 fails the fit check, which names n >= 4
    for n in range(4):
        with pytest.raises(PlacementError, match=rf"requires n >= 4 for r=1, got n={n}$"):
            certify_lower_bound(n)


def test_recheck_round_trip_and_tamper():
    cert = certify_lower_bound(9)
    results = recheck_certificate(cert)
    assert all(ok for _, ok, _ in results)

    # tamper inside the pyramid: the restriction clause must fail
    entries = dict(cert.t_tilde.support())
    entries[(1, 1, 1)] = cert.t_tilde.field.one()  # (1,1,1) is in P but not in S
    tampered = cert._replace(
        t_tilde=Tensor(cert.t_tilde.field, cert.t_tilde.dims, entries)
    )
    results = recheck_certificate(tampered)
    by_clause = {clause: ok for clause, ok, _ in results}
    assert by_clause["restriction"] is False


# ---------------------------------------------------------------------------
# dichotomy and slice covers
# ---------------------------------------------------------------------------

def test_dichotomy_full_cube():
    cube = {(i, j, k) for i in (1, 2) for j in (1, 2) for k in (1, 2)}
    out = hypercube_dichotomy(cube, 2, 3)
    assert out.kind == "hypercube"
    assert out.hypercube == frozenset(cube)


def test_dichotomy_cover_three_slices():
    pts = {
        (j, k, l)
        for j in (1, 2, 3)
        for k in (1, 2, 3)
        for l in (1, 2, 3)
        if 1 in (j, k, l)
    }
    out = hypercube_dichotomy(pts, 2, 3)
    assert out.kind == "cover"
    assert set(out.cover) == {(0, 1), (1, 1), (2, 1)}
    assert cover_size(out) == 3  # d*(s-1)


def test_dichotomy_on_pyramid():
    pattern = build_pyramid(6, 4)
    # (2,2,2) is inside the rank-4 pyramid, (3,3,3) is not
    assert hypercube_dichotomy(pattern.positions, 2, 3).kind == "hypercube"
    assert hypercube_dichotomy(pattern.positions, 3, 3).kind == "cover"


def test_dichotomy_rejects_non_downward_closed():
    with pytest.raises(ValueError):
        hypercube_dichotomy({(2, 2)}, 2, 2)


def test_min_slice_cover_unit_supports():
    for r in (1, 2, 3):
        support = {pos for pos, _ in unit_tensor(QQ, r, 3).support()}
        assert min_slice_cover(support, (r,) * 3) == r


def test_min_slice_cover_single_slice():
    support = {(1, k, l) for k in (1, 2, 3) for l in (1, 2, 3)}
    assert min_slice_cover(support, (3, 3, 3)) == 1


def test_min_slice_cover_pyramid_r3():
    pattern = build_pyramid(3, 3)
    assert min_slice_cover(pattern.positions, (3, 3, 3)) == 3


def test_min_slice_cover_guard():
    support = {(i, 1) for i in range(1, 10)}
    with pytest.raises(ValueError, match="guarded to small instances"):
        min_slice_cover(support, (9, 9))
