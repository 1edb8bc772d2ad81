"""ExperimentSpec: grid expansion, seed derivation, hashing."""

import pytest

from repro.experiments.spec import ExperimentSpec, derive_seed
from repro.scaleout import canonical_json, stable_hash


def dummy_factory(config, seed):
    return {"value": config.get("x", 0) * 2, "seed": seed}


def dummy_metrics(result):
    return result


def make_spec(**overrides):
    kwargs = dict(name="dummy", factory=dummy_factory,
                  metrics=dummy_metrics,
                  grid={"x": (1, 2, 3)}, fixed={"y": "const"})
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestGridExpansion:
    def test_cartesian_product_in_declaration_order(self):
        spec = make_spec(grid={"a": (1, 2), "b": ("u", "v")})
        assert spec.configs() == [
            {"y": "const", "a": 1, "b": "u"},
            {"y": "const", "a": 1, "b": "v"},
            {"y": "const", "a": 2, "b": "u"},
            {"y": "const", "a": 2, "b": "v"},
        ]
        assert len(spec) == 4

    def test_empty_grid_is_single_task(self):
        spec = make_spec(grid={})
        assert spec.configs() == [{"y": "const"}]
        assert len(spec) == 1

    def test_grid_overrides_fixed(self):
        spec = make_spec(grid={"y": ("a", "b")})
        assert [c["y"] for c in spec.configs()] == ["a", "b"]

    def test_empty_grid_values_rejected(self):
        with pytest.raises(ValueError):
            make_spec(grid={"x": ()})

    def test_scalar_grid_values_rejected(self):
        with pytest.raises(TypeError):
            make_spec(grid={"x": 3})

    def test_nameless_spec_rejected(self):
        with pytest.raises(ValueError):
            make_spec(name="")


class TestSeeds:
    def test_seeds_deterministic_across_calls(self):
        seeds_a = [t.seed for t in make_spec().tasks()]
        seeds_b = [t.seed for t in make_spec().tasks()]
        assert seeds_a == seeds_b

    def test_seeds_differ_per_config(self):
        seeds = [t.seed for t in make_spec().tasks()]
        assert len(set(seeds)) == len(seeds)

    def test_base_seed_changes_every_task_seed(self):
        a = [t.seed for t in make_spec().tasks()]
        b = [t.seed for t in make_spec(base_seed=1).tasks()]
        assert all(x != y for x, y in zip(a, b))

    def test_seed_is_63_bit_nonnegative(self):
        for task in make_spec().tasks():
            assert 0 <= task.seed < 2**63

    def test_derive_seed_independent_of_dict_order(self):
        assert (derive_seed("s", 1, 0, {"a": 1, "b": 2})
                == derive_seed("s", 1, 0, {"b": 2, "a": 1}))


class TestRepeated:
    def test_adds_repeat_axis(self):
        spec = make_spec().repeated(3)
        assert len(spec) == 9  # 3 x values x 3 repeats
        repeats = {c["repeat"] for c in spec.configs()}
        assert repeats == {0, 1, 2}

    def test_each_repeat_gets_its_own_seed(self):
        spec = make_spec(grid={"x": (1,)}).repeated(4)
        seeds = [t.seed for t in spec.tasks()]
        assert len(set(seeds)) == 4

    def test_original_spec_unchanged(self):
        spec = make_spec()
        spec.repeated(2)
        assert "repeat" not in spec.grid

    def test_custom_axis_name(self):
        spec = make_spec().repeated(2, axis="trial")
        assert {c["trial"] for c in spec.configs()} == {0, 1}

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            make_spec().repeated(0)

    def test_rejects_colliding_axis(self):
        with pytest.raises(ValueError):
            make_spec().repeated(2, axis="x")
        with pytest.raises(ValueError):
            make_spec().repeated(2, axis="y")


class TestHashing:
    def test_canonical_json_sorts_keys(self):
        assert (canonical_json({"b": 1, "a": 2})
                == canonical_json({"a": 2, "b": 1}))

    def test_stable_hash_distinguishes_values(self):
        assert stable_hash({"x": 1}) != stable_hash({"x": 2})

    def test_config_hash_changes_with_version(self):
        t1 = make_spec().tasks()[0]
        t2 = make_spec(version=2).tasks()[0]
        assert t1.config_hash != t2.config_hash

    def test_unserializable_config_rejected(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})


class TestExecute:
    def test_execute_runs_factory_then_metrics(self):
        task = make_spec().tasks()[1]
        assert task.execute() == {"value": 4, "seed": task.seed}
