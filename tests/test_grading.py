import json
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import brute_admissible, flat_kunneth_survivors
from modiag import (
    admissible_degrees,
    certificate_to_json,
    certificate_to_text,
    count_admissible,
    filter_top,
    prove_empty_pigeonhole,
    replay_proof,
    weight_from_eigenvalue,
)
from modiag import grading
from modiag.grading import ASSUMED, FAIL, LAYERS, PASS, SKIPPED, STEP_KINDS, _kunneth_survivors


def test_weight_examples():
    assert weight_from_eigenvalue(1, 3, 2) == 4
    assert weight_from_eigenvalue(2, 5, 4) == 16
    assert weight_from_eigenvalue(1, 1, 2) == 0


def test_weight_errors():
    with pytest.raises(ValueError):
        weight_from_eigenvalue(1, 2, -1)
    with pytest.raises(ValueError):
        weight_from_eigenvalue(1, 2, 5)


@pytest.mark.parametrize("bad", [2.5, 2.0, "3", True])
def test_weight_rejects_non_integer_exponent(bad):
    with pytest.raises(TypeError):
        weight_from_eigenvalue(1, 2, bad)


@pytest.mark.parametrize("bad", [True, 2.0, "2"], ids=repr)
@pytest.mark.parametrize("call", [count_admissible, admissible_degrees])
def test_weight_total_rejects_non_integer(call, bad):
    with pytest.raises(TypeError):
        call(1, 2, bad)


@given(st.integers(1, 4), st.integers(1, 6), st.data())
def test_weight_inverts_exponent(g, m, data):
    w = data.draw(st.integers(0, 2 * g * m))
    assert 2 * g * m - weight_from_eigenvalue(g, m, w) == w


def test_admissible_examples():
    assert admissible_degrees(1, 2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert admissible_degrees(1, 3, 4) == [
        (0, 2, 2),
        (1, 1, 2),
        (1, 2, 1),
        (2, 0, 2),
        (2, 1, 1),
        (2, 2, 0),
    ]
    assert admissible_degrees(1, 1, 0) == [(0,)]
    assert admissible_degrees(1, 1, 3) == []


def test_admissible_matches_brute_force():
    for g in (1, 2):
        for m in (1, 2, 3):
            for nu in range(2 * g * m + 2):
                expected = brute_admissible(g, m, nu)
                got = admissible_degrees(g, m, nu)
                assert got == expected  # brute force product is already lex ordered
                assert count_admissible(g, m, nu) == len(expected)


def test_admissible_is_lex_sorted():
    out = admissible_degrees(2, 3, 7)
    assert out == sorted(out)


def test_count_admissible_large_values():
    # counting never enumerates, so huge spaces are fine
    assert count_admissible(3, 9, 2 * 3 * 8) == len(admissible_degrees(3, 9, 48))


def test_filter_top_examples():
    assert filter_top([(0, 2), (1, 1), (2, 0)], 1) == [(1, 1)]
    assert filter_top([(2, 2)], 1) == []
    assert filter_top([(3, 3, 3, 3)], 2) == [(3, 3, 3, 3)]


def test_pigeonhole_examples():
    assert prove_empty_pigeonhole(1, 3).holds
    assert prove_empty_pigeonhole(1, 3).counterexample is None

    out = prove_empty_pigeonhole(1, 2)
    assert not out.holds and out.counterexample == (1, 1)

    out = prove_empty_pigeonhole(2, 4)
    assert not out.holds and out.counterexample == (3, 3, 3, 3)


def test_pigeonhole_agrees_with_enumeration():
    for g in (1, 2, 3):
        for m in range(1, 2 * g + 4):
            nu = 2 * g * (m - 1)
            survivors = filter_top(admissible_degrees(g, m, nu), g)
            out = prove_empty_pigeonhole(g, m)
            assert out.holds == (not survivors)
            assert out.holds == (m >= 2 * g + 1)
            if not out.holds:
                assert out.counterexample in survivors
                assert out.counterexample == min(survivors)
            if m == 2 * g:
                assert survivors == [(2 * g - 1,) * m]


WALK_CASES = [(g, m) for g in range(1, 4) for m in range(1, 2 * g + 4)] + [
    (4, 8),
    (4, 9),
    (5, 10),
    (5, 11),
    (5, 6),
    (6, 5),
    (1, 40),
    (2, 30),
]


@pytest.mark.parametrize("g,m", WALK_CASES)
def test_survivor_walk_matches_enumeration(g, m):
    degrees = admissible_degrees(g, m, 2 * g * (m - 1))
    walked, survivors = _kunneth_survivors(g, m)
    assert survivors == filter_top(degrees, g)
    assert walked == len(degrees)
    assert (walked, survivors) == flat_kunneth_survivors(g, m)


@given(st.integers(1, 4), st.integers(1, 9))
def test_survivor_walk_matches_flat_walk(g, m):
    walk = _kunneth_survivors(g, m)
    assert walk == flat_kunneth_survivors(g, m)
    assert walk[1] == filter_top(admissible_degrees(g, m, 2 * g * (m - 1)), g)


@pytest.mark.parametrize("g,m", [(700, 1), (1000, 2), (300, 3)])
def test_survivor_walk_is_iterative_and_fast_at_large_genus(g, m):
    # A walk that recursed once per factor slot would exceed the recursion
    # limit here; the flat walk takes seconds at (300, 3).
    start = time.perf_counter()
    cert = replay_proof(g, m, layers=("grading",))
    assert time.perf_counter() - start < 1
    step = next(s for s in cert.steps if s.id == "kunneth-survivors")
    assert step.status == PASS and step.witness["matches_analytic"]
    nu = 2 * g * (m - 1)
    walked, survivors = _kunneth_survivors(g, m)
    assert walked == count_admissible(g, m, nu) == step.witness["admissible_count"]
    assert len(survivors) == grading._count_bounded(m, nu, 2 * g - 1)
    assert survivors[:1] == [prove_empty_pigeonhole(g, m).counterexample]


@pytest.mark.parametrize(
    "g,m,walked,survivors",
    [
        (7, 14, 20_058_300, [(13,) * 14]),
        (7, 15, 40_116_600, []),
        (8, 17, 601_080_390, []),
        (12, 24, 16_123_801_841_550, [(23,) * 24]),
        (12, 25, 32_247_603_683_100, []),
    ],
)
def test_survivor_walk_counts_dead_classes_without_enumerating_them(g, m, walked, survivors):
    # Generating the profiles that miss a factor one by one, even in C,
    # overruns the 1 s bound at (7, 15) and (8, 17), and so does walking the
    # 2^(2g-1) prefixes of the survivors' complements at (12, 24) and
    # (12, 25); the profiles with s < m nonzero complements are counted by
    # C(m, s) C(2g-1, s-1) and only the survivors are generated.
    start = time.perf_counter()
    walk = _kunneth_survivors(g, m)
    assert time.perf_counter() - start < 1
    assert walk == (walked, survivors)
    assert walked == count_admissible(g, m, 2 * g * (m - 1))


def test_replay_proof_walks_far_beyond_the_default_bound():
    start = time.perf_counter()
    cert = replay_proof(7, 15, layers=("grading",), enum_bound=10**9)
    assert time.perf_counter() - start < 1
    steps = {s.id: s for s in cert.steps}
    walk = steps["kunneth-survivors"]
    assert (walk.status, walk.witness["matches_analytic"]) == (PASS, True)
    assert walk.witness["admissible_count"] == 40_116_600
    assert steps["top-degree-pigeonhole"].status == PASS
    assert cert.result == PASS


def test_survivor_count_cross_checks_the_walk(monkeypatch):
    step = next(s for s in replay_proof(2, 3).steps if s.id == "kunneth-survivors")
    assert (step.status, step.witness["matches_analytic"]) == (PASS, True)
    exact = grading.count_admissible
    monkeypatch.setattr(grading, "count_admissible", lambda g, m, nu: exact(g, m, nu) + 1)
    step = next(s for s in replay_proof(2, 3).steps if s.id == "kunneth-survivors")
    assert (step.status, step.witness["matches_analytic"]) == (FAIL, False)


def test_replay_proof_passes_beyond_threshold():
    cert = replay_proof(1, 3, layers=("formal", "grading", "cohomology"))
    assert cert.result == PASS
    assert [s.id for s in cert.steps] == [
        "mult-eigenvalue",
        "contraction-vanishing",
        "motivic-decomposition",
        "eigenweight",
        "kunneth-survivors",
        "top-degree-pigeonhole",
        "cohomology-shadow",
    ]
    assert all(s.kind in STEP_KINDS for s in cert.steps)


def test_replay_proof_axiom_is_assumed_and_cited():
    cert = replay_proof(2, 5)
    axiom = next(s for s in cert.steps if s.kind == "AXIOM")
    assert axiom.status == ASSUMED
    assert "Deninger" in axiom.reference and "Murre" in axiom.reference
    assert "zero section" in axiom.witness["base_point_note"]


def test_replay_proof_small_m_reports_survivors_without_claiming():
    cert = replay_proof(1, 2)
    assert cert.result == FAIL
    pigeon = next(s for s in cert.steps if s.kind == "PIGEONHOLE")
    assert pigeon.status == FAIL
    assert pigeon.witness["counterexample"] == [1, 1]
    assert "no conclusion about vanishing" in pigeon.witness["note"]
    survivors = next(s for s in cert.steps if s.kind == "GRADING_FILTER")
    assert survivors.status == PASS
    assert survivors.witness["survivors"] == [[1, 1]]
    # everything except the designed pigeonhole failure passed
    assert all(s.status != FAIL for s in cert.steps if s.kind != "PIGEONHOLE")


def test_replay_proof_is_byte_deterministic():
    a = certificate_to_json(replay_proof(2, 5, layers=("formal", "grading")))
    b = certificate_to_json(replay_proof(2, 5, layers=("formal", "grading")))
    assert a.encode() == b.encode()


def test_certificate_json_field_order():
    payload = json.loads(certificate_to_json(replay_proof(1, 3)))
    assert list(payload) == ["schema_version", "g", "m", "steps", "result"]
    assert payload["schema_version"] == "1"
    for step in payload["steps"]:
        assert list(step) == ["id", "kind", "statement", "reference", "status", "witness"]


def test_certificate_text_format():
    text = certificate_to_text(replay_proof(1, 3))
    assert text.startswith("certificate schema 1: g=1 m=3")
    assert text.rstrip().endswith("result: PASS")


def test_enumeration_bound_skips_without_silence():
    cert = replay_proof(1, 3, enum_bound=1)
    survivors = next(s for s in cert.steps if s.kind == "GRADING_FILTER")
    assert survivors.status == SKIPPED
    assert survivors.witness["survivor_count"] == 0
    assert survivors.witness["enumeration_bound"] == 1
    # the analytic pigeonhole still concludes
    assert cert.result == PASS


def test_cohomology_bound_skips_without_silence():
    cert = replay_proof(1, 3, layers=("formal", "grading", "cohomology"), max_dim=5)
    shadow = next(s for s in cert.steps if s.kind == "COHOMOLOGY_CHECK")
    assert shadow.status == SKIPPED
    assert shadow.witness["max_dim"] == 5
    assert cert.result == PASS


def test_cohomology_step_consistent_for_small_m():
    cert = replay_proof(2, 2, layers=("grading", "cohomology"))
    shadow = next(s for s in cert.steps if s.kind == "COHOMOLOGY_CHECK")
    assert shadow.status == PASS
    assert shadow.witness["is_zero"] is False
    assert shadow.witness["survivor_containment"] == "verified"
    assert shadow.witness["support"] == [[1, 3], [2, 2], [3, 1]]


@pytest.mark.parametrize(
    "call",
    [
        lambda: weight_from_eigenvalue(True, 2, 1),
        lambda: weight_from_eigenvalue(1, True, 1),
        lambda: count_admissible(True, 3, 4),
        lambda: count_admissible(1, True, 0),
        lambda: admissible_degrees(True, 2, 2),
        lambda: admissible_degrees(1, True, 0),
        lambda: prove_empty_pigeonhole(True, 3),
        lambda: prove_empty_pigeonhole(1, True),
        lambda: count_admissible(0, 3, 4),
        lambda: admissible_degrees(1, 2.0, 2),
        lambda: filter_top([(2, 0), (1, 1)], True),
        lambda: filter_top([(2, 0), (1, 1)], 1.0),
        lambda: filter_top([(2, 0), (1, 1)], 0),
    ],
)
def test_grading_helpers_reject_bool_and_non_integer_shapes(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("g", [3, 4, 5])
def test_replay_proof_first_vanishing_power_with_every_layer(g):
    cert = replay_proof(g, 2 * g + 1, layers=("formal", "grading", "cohomology"), max_dim=10**40)
    assert cert.result == PASS
    shadow = cert.steps[-1]
    assert (shadow.id, shadow.status, shadow.witness["is_zero"]) == ("cohomology-shadow", PASS, True)


def test_replay_proof_input_validation():
    with pytest.raises(ValueError):
        replay_proof(0, 2)
    with pytest.raises(ValueError):
        replay_proof(True, 3, layers=["grading"])
    with pytest.raises(ValueError):
        replay_proof(1, True, layers=["grading"])
    with pytest.raises(ValueError):
        replay_proof(1, 2, layers=("formal", "nonsense"))
    with pytest.raises(ValueError):
        replay_proof(1, 2, layers=())
    with pytest.raises(ValueError):
        replay_proof(1, 2, mult_sample=(2, 0))


@pytest.mark.parametrize("bad", [True, 5.0, float("nan"), "5"], ids=repr)
@pytest.mark.parametrize("bound", ["enum_bound", "max_dim"])
def test_replay_proof_bounds_follow_the_integer_rule(bound, bad):
    with pytest.raises(TypeError):
        replay_proof(1, 3, layers=LAYERS, **{bound: bad})


@pytest.mark.parametrize("bad", [True, 2.0, 2.5, "2"])
@pytest.mark.parametrize("layers", [("formal", "grading"), ("grading",)])
def test_replay_proof_rejects_non_integer_mult_sample(bad, layers):
    with pytest.raises(ValueError, match="must be nonzero integers"):
        replay_proof(1, 3, layers=layers, mult_sample=(2, bad))
