import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import brute_admissible
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
from modiag.grading import ASSUMED, FAIL, PASS, SKIPPED, STEP_KINDS


def test_weight_examples():
    assert weight_from_eigenvalue(1, 3, 2) == 4
    assert weight_from_eigenvalue(2, 5, 4) == 16
    assert weight_from_eigenvalue(1, 1, 2) == 0


def test_weight_errors():
    with pytest.raises(ValueError):
        weight_from_eigenvalue(1, 2, -1)
    with pytest.raises(ValueError):
        weight_from_eigenvalue(1, 2, 5)


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
