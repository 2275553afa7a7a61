"""Dense eigensolves each CLI command makes, on tiny configs.

Every code solves its Hamiltonian at most once (a diagonal one not at
all) and every joint Hamiltonian is solved once, so each command's count
is the number of distinct Hamiltonians it needs.
"""

import json

import pytest

from logipure.cli import main

BUDGET = [
    # (command, config, eigensolves): the comment names what is solved
    ("fig2", {"a_points": 2, "t_points": 2}, 1),  # H_tot
    ("fig3", {"j_points": 2, "beta_points": 2}, 0),  # diagonal codes only
    ("fig4", {"a_points": 2, "t_points": 2, "max_rounds": 10}, 1),  # H_tot
    ("table1", {"rows": [1], "max_rounds": 20}, 2),  # the two-site chain, then its H_tot
    ("purify", {}, 1),  # H_tot
    ("decompose", {}, 0),  # no spectrum needed
]


@pytest.mark.parametrize("command,config,expected", BUDGET, ids=[row[0] for row in BUDGET])
def test_cli_eigensolve_budget(command, config, expected, tmp_path, eigensolves):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert len(eigensolves) == expected, eigensolves
