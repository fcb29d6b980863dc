import re
from pathlib import Path

from modiag import (
    Ambient,
    certificate_to_json,
    class_of_cycle,
    cycle_scale,
    modified_diagonal_class,
    mult_pushforward_all,
    profile_support,
    proj_pushforward,
    replay_proof,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs_and_its_comments_hold(capsys):
    tour = README.read_text().split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    ns: dict = {}
    exec(code, ns)
    assert capsys.readouterr().out == certificate_to_json(replay_proof(2, 5)) + "\n"

    amb, gamma = ns["amb"], ns["gamma"]
    assert amb == Ambient(2, 4)
    assert len(gamma.terms) == 15
    assert set(gamma.terms.values()) == {1, -1}
    assert mult_pushforward_all(gamma, 3) == cycle_scale(gamma, 81)
    assert proj_pushforward(gamma, 2).is_zero
    cls = class_of_cycle(gamma)
    assert profile_support(cls) == {(3, 3, 3, 3)}
    assert modified_diagonal_class(amb) == cls
    assert len(cls.terms) == 24
