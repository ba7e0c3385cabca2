"""``python -m repro hb perturb`` CLI: verdicts and exit codes."""

import pytest

from repro.hb.cli import hb_main


class TestPerturb:
    def test_passing_scenario_exits_0(self, capsys):
        rc = hb_main(["perturb", "fig3", "--salts", "1,2",
                      "--scale", "0.02"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "salt 2:" in out

    def test_unknown_scenario_exits_2(self, capsys):
        assert hb_main(["perturb", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_salts_exit_2(self, capsys):
        assert hb_main(["perturb", "fig3", "--salts", "x,y"]) == 2
        assert "bad --salts" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_scale_must_be_positive_and_finite(value, capsys):
    with pytest.raises(SystemExit) as ended:
        hb_main(["perturb", "fig3", "--scale", value])
    assert ended.value.code == 2
    assert "invalid positive_finite value" in capsys.readouterr().err
