import random

import pytest

from nodaltheta.arcs import sample_arcs_check
from nodaltheta.errors import PreconditionError
from nodaltheta.localmodel import (
    MAX_BRANCH_NODES,
    LocalModel,
    ModelElement,
    branch_orders,
    branch_project,
    branch_variables,
    reduce,
)
from nodaltheta.parsing import parse_series
from nodaltheta.series import PowerSeries


def element(model, text, truncation=12):
    return model.element(text, truncation)


class TestModel:
    def test_variable_order(self):
        model = LocalModel(2, 1)
        assert model.variables == ("u1", "u2", "v1", "v2", "w1")
        assert model.dimension == 3

    def test_degenerate_model_rejected(self):
        with pytest.raises(PreconditionError):
            LocalModel(0, 0)

    def test_branch_budget(self):
        assert len(list(LocalModel(3, 0).branches())) == 8
        LocalModel(MAX_BRANCH_NODES, 0).branches()
        past = LocalModel(MAX_BRANCH_NODES + 1, 2)  # a model may still be built
        with pytest.raises(PreconditionError) as info:
            past.branches()
        assert info.value.name == "model"
        with pytest.raises(PreconditionError):
            branch_orders(past.element("u1 + w1"))

    def test_branch_enumeration_order(self):
        assert list(LocalModel(2, 0).branches()) == [
            ("u", "u"),
            ("u", "v"),
            ("v", "u"),
            ("v", "v"),
        ]


class TestModelElement:
    @pytest.mark.parametrize("names", [("x",), ("u1", "v1", "x"), ("v1", "u1", "w1")])
    def test_series_over_other_variables_rejected(self, names):
        model = LocalModel(1, 1)
        f = parse_series(names[0], names, 16)
        for build in (ModelElement, reduce):
            with pytest.raises(PreconditionError) as info:
                build(model, f)
            assert info.value.name == "variable-mismatch"
            assert str(info.value).endswith(
                f"series over {names}, model has {model.variables}"
            )

    def test_sample_arcs_check_names_the_mismatch(self):
        with pytest.raises(PreconditionError) as info:
            sample_arcs_check(
                ModelElement(LocalModel(1, 1), parse_series("x", ("x",), 16)), 5, 8, 0
            )
        assert info.value.name == "variable-mismatch"


class TestReduce:
    def test_node_relation_kills_product(self):
        model = LocalModel(1, 0)
        assert element(model, "u1*v1 + v1").series == parse_series(
            "v1", model.variables, 12
        )

    def test_parabola_already_normal(self):
        model = LocalModel(1, 1)
        f = parse_series("v1 - u1^2", model.variables, 12)
        assert reduce(model, f).series == f

    def test_both_relations(self):
        model = LocalModel(2, 0)
        assert element(model, "u1*v1 + u2*v2").is_zero()

    def test_idempotent(self):
        model = LocalModel(2, 1)
        rng = random.Random(5)
        for _ in range(40):
            f = random_model_series(rng, model)
            once = reduce(model, f)
            assert reduce(model, once.series).series == once.series

    def test_linear(self):
        model = LocalModel(1, 1)
        rng = random.Random(6)
        for _ in range(40):
            f = random_model_series(rng, model)
            g = random_model_series(rng, model)
            assert reduce(model, f + g).series == (
                reduce(model, f).series + reduce(model, g).series
            )


def random_model_series(rng, model, truncation=12, terms=6, max_degree=4):
    nvars = len(model.variables)
    coeffs = {}
    for _ in range(terms):
        exponent = [0] * nvars
        for _ in range(rng.randint(1, max_degree)):
            exponent[rng.randrange(nvars)] += 1
        coeffs[tuple(exponent)] = rng.randint(-9, 9)
    return PowerSeries(model.variables, coeffs, truncation)


class TestBranchProject:
    def test_parabola_branches(self):
        model = LocalModel(1, 1)
        f = element(model, "v1 - u1^2")
        keep_u = branch_project(f, ("u",))
        keep_v = branch_project(f, ("v",))
        assert keep_u == parse_series("-u1^2", ("u1", "w1"), 12)
        assert keep_v == parse_series("v1", ("v1", "w1"), 12)
        assert keep_u.order() == 2 and keep_v.order() == 1

    def test_sum_of_node_coordinates(self):
        model = LocalModel(1, 0)
        f = element(model, "u1 + v1")
        assert branch_project(f, ("u",)) == parse_series("u1", ("u1",), 12)
        assert branch_project(f, ("v",)) == parse_series("v1", ("v1",), 12)

    def test_smooth_coordinate_unaffected(self):
        model = LocalModel(1, 1)
        f = element(model, "w1")
        for branch in model.branches():
            projected = branch_project(f, branch)
            assert projected == parse_series("w1", branch_variables(model, branch), 12)

    def test_ring_map_property(self):
        model = LocalModel(2, 1)
        rng = random.Random(11)
        for _ in range(40):
            f = reduce(model, random_model_series(rng, model))
            g = reduce(model, random_model_series(rng, model))
            for branch in model.branches():
                left = branch_project(reduce(model, f.series * g.series), branch)
                right = branch_project(f, branch) * branch_project(g, branch)
                assert left == right


class TestBranchOrders:
    def test_parabola(self):
        model = LocalModel(1, 1)
        orders = branch_orders(element(model, "v1 - u1^2"))
        assert [(b.branch, b.order) for b in orders] == [(("u",), 2), (("v",), 1)]

    def test_smooth_square(self):
        model = LocalModel(1, 1)
        orders = branch_orders(element(model, "w1^2"))
        assert [b.order for b in orders] == [2, 2]

    def test_vanishing_branch_flagged(self):
        model = LocalModel(1, 0)
        orders = branch_orders(element(model, "u1"))
        assert orders[0].order == 1
        assert orders[1].order is None

    def test_zero_element_rejected(self):
        model = LocalModel(1, 0)
        with pytest.raises(PreconditionError):
            branch_orders(element(model, "u1*v1"))

    def test_minimum_equals_order_of_normal_form(self):
        rng = random.Random(12)
        for n, m in [(1, 0), (1, 1), (2, 1), (3, 0)]:
            model = LocalModel(n, m)
            for _ in range(30):
                f = reduce(model, random_model_series(rng, model))
                if f.is_zero():
                    continue
                orders = branch_orders(f)
                assert min(b.order for b in orders if b.order is not None) == f.order()
