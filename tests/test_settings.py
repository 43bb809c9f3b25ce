"""One bounds rule for every numeric setting: `errors.check_settings`, as
the four trainer configs and the two NMF solvers apply it."""

import math
from dataclasses import fields

import numpy as np
import pytest

from polyembed import facets
from polyembed.errors import ValidationError, check_settings
from polyembed.polydeepwalk import TrainConfig
from polyembed.polygcn import GcnConfig
from polyembed.polypte import PteConfig
from polyembed.walks import WalkConfig

# config -> (positive fields, nonnegative fields)
BOUNDS = {
    TrainConfig: ("dim negatives facet_rate epochs learning_rate window", "seed"),
    PteConfig: ("dim negatives facet_rate total_samples learning_rate", "seed"),
    GcnConfig: ("dim depth learning_rate iterations negatives", "threshold seed"),
    WalkConfig: ("walks_per_node window", "seed"),
}
# numeric fields with a bound of their own
OWN_BOUNDS = {"walk_length"}
CASES = [(cls, name, bound, bad)
         for cls, (positive, nonnegative) in BOUNDS.items()
         for names, bound, low in ((positive, "positive", 0),
                                   (nonnegative, "nonnegative", -1))
         for name in names.split() for bad in (low, math.nan)]


@pytest.mark.parametrize("cls, name, bound, bad", CASES,
                         ids=[f"{c.__name__}.{n}={b}" for c, n, _, b in CASES])
def test_a_setting_out_of_bounds_names_itself(cls, name, bound, bad):
    with pytest.raises(ValidationError, match=f"^{name} must be {bound}$"):
        cls(**{name: bad})


def test_every_numeric_field_has_a_bound():
    unbounded = [f"{cls.__name__}.{f.name}" for cls, (positive, nonnegative)
                 in BOUNDS.items() for f in fields(cls)
                 if f.type.startswith(("int", "float"))
                 and f.name not in (positive + " " + nonnegative).split()
                 and f.name not in OWN_BOUNDS]
    assert unbounded == []


def test_unset_settings_and_the_bounds_themselves_pass():
    assert PteConfig(facet_rate=None, total_samples=None).facet_rate is None
    check_settings({"a": None, "b": None}, positive="a", nonnegative="b")
    check_settings({"a": 1e-300, "b": 0.0, "c": 0}, positive="a",
                   nonnegative="b c")


@pytest.mark.parametrize("bad", [1, math.nan])
def test_walk_length_is_at_least_two(bad):
    with pytest.raises(ValidationError, match="^walk_length must be at least 2$"):
        WalkConfig(walk_length=bad)


NMF = {"symmetric": (facets.symmetric_nmf, np.array([[0.0, 1.0], [1.0, 0.0]])),
       "asymmetric": (facets.asymmetric_nmf, np.array([[1.0, 0.0], [1.0, 1.0]]))}


@pytest.mark.parametrize("solver", sorted(NMF))
@pytest.mark.parametrize("setting, bad, bound", [
    ("max_iters", 0, "positive"), ("max_iters", -5, "positive"),
    ("max_iters", math.nan, "positive"), ("alpha", -1.0, "nonnegative"),
    ("alpha", math.nan, "nonnegative"), ("tol", -1e-5, "nonnegative"),
    ("tol", math.nan, "nonnegative")])
def test_nmf_settings_out_of_bounds_are_errors(solver, setting, bad, bound):
    nmf, a = NMF[solver]
    with pytest.raises(ValidationError, match=f"^{setting} must be {bound}$"):
        nmf(a, 1, **{setting: bad})
    # checked before the early return of an all-zero matrix too
    with pytest.raises(ValidationError, match=f"^{setting} must be {bound}$"):
        nmf(np.zeros_like(a), 1, **{setting: bad})
