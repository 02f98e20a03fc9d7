import pytest

from symdual.avoidance import find_avoiding_permutation
from symdual.cli import main
from symdual.config import ENV_MAX_C, ideal_enum_cap, tuple_enum_cap
from symdual.dual_core import min_gens
from symdual.errors import CapError, InputError
from symdual.orbit_monomials import GeneratorSystem, TypeVector


class TestCaps:
    def test_defaults(self):
        assert ideal_enum_cap() == 6
        assert tuple_enum_cap() == 4

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_MAX_C, "3")
        assert ideal_enum_cap() == 3
        assert tuple_enum_cap() == 3
        with pytest.raises(CapError):
            find_avoiding_permutation([1], [2], 4)

    def test_pipeline_cap_and_override(self, monkeypatch):
        gen = TypeVector.from_counts(5, {1: 1})
        system = GeneratorSystem.make(5, [gen])
        with pytest.raises(CapError):
            min_gens(system, 2)
        # the environment override admits the larger ambient size
        monkeypatch.setenv(ENV_MAX_C, "5")
        assert len(min_gens(system, 2)) >= 1

    @pytest.mark.parametrize("raw", ["abc", "4.5", "0", "-2"])
    def test_env_value_must_be_a_positive_integer(self, monkeypatch, raw):
        monkeypatch.setenv(ENV_MAX_C, raw)
        with pytest.raises(InputError, match=ENV_MAX_C):
            ideal_enum_cap()
        with pytest.raises(InputError, match=ENV_MAX_C):
            tuple_enum_cap()

    def test_bad_env_value_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv(ENV_MAX_C, "0")
        edge = '{"c": 2, "generators": [{"counts": {"[1, 2]": 1}}]}'
        assert main(["count", "--json", edge, "--n", "3"]) == 2
        assert capsys.readouterr().err.count("\n") == 1
