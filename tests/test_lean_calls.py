"""The closed-form entry points build only what they return.

reduction_ratio, survival_split, reversal_probability and
corrupted_reconstruction once built a reference geometry, a TiltedField, an
ExpectationTriple or a ReconstructionResult and threw it away, and
MultiFieldConfig validated each of its geometries a second time.  At a few
microseconds per call that was a measurable share of the closed-form
benchmark.  Counters on those constructors keep it from coming back.
"""

import collections
import math

import pytest

from protspin import (
    ExpectationTriple,
    MeasurementGeometry,
    MultiFieldConfig,
    ProfileKind,
    corrupted_reconstruction,
    reconstruct_state,
    reduction_ratio,
    reversal_probability,
    survival_split,
    tilted_field,
)
from protspin.exact import TiltedField
from protspin.reconstruct import ReconstructionResult

AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


@pytest.fixture
def built(monkeypatch):
    """Counts, by class name, the objects constructed while the test runs."""
    counts = collections.Counter()

    def count(cls, method):
        original = getattr(cls, method)

        def counted(self, *args, **kwargs):
            counts[cls.__name__] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, counted)

    count(MeasurementGeometry, "__post_init__")
    count(TiltedField, "__init__")
    count(ExpectationTriple, "__init__")
    count(ReconstructionResult, "__init__")
    return counts


def test_counters_see_each_construction(built):
    geom = MeasurementGeometry(0.3, 1.0, 0.5, 20.0)
    tilted_field(geom)
    reconstruct_state(ExpectationTriple(directions=AXES, values=(0.1, 0.2, 0.3)))
    assert built == {"MeasurementGeometry": 1, "TiltedField": 1, "ExpectationTriple": 1, "ReconstructionResult": 1}


GEOM = MeasurementGeometry(0.7, 1.1, 2.0, 300.0)


@pytest.mark.parametrize("call, args", [
    (reduction_ratio, (ProfileKind.RAISED_COSINE, 300.0)),
    (reduction_ratio, (ProfileKind.OPTIMIZED, 2.0**600)),
    (survival_split, (GEOM,)),
    (reversal_probability, (GEOM,)),
    (corrupted_reconstruction, (1.1, 2.0)),
    (corrupted_reconstruction, (0.0, 0.0)),
], ids=["reduction_ratio", "reduction_ratio_frexp", "survival_split", "reversal_probability",
        "corrupted_reconstruction", "corrupted_reconstruction_pole"])
def test_closed_forms_build_nothing_they_throw_away(built, call, args):
    call(*args)
    assert built == {}


def test_config_of_geometries_validates_no_geometry_again(built):
    fields = (
        MeasurementGeometry(0.1, 0.5 * math.pi, 0.0),
        MeasurementGeometry(0.2, 0.5 * math.pi, 0.5 * math.pi),
        MeasurementGeometry(0.3, 0.0, 0.0),
    )
    built.clear()
    MultiFieldConfig(fields=fields, omega0T=300.0)
    assert built == {}


def test_config_of_other_field_objects_validates_each(built):
    class Field:
        def __init__(self, xi, gamma, eta):
            self.xi, self.gamma, self.eta = xi, gamma, eta

    MultiFieldConfig(
        fields=(Field(0.1, 0.5 * math.pi, 0.0), Field(0.2, 0.5 * math.pi, 0.5 * math.pi), Field(0.3, 0.0, 0.0)),
        omega0T=300.0,
    )
    assert built == {"MeasurementGeometry": 3}
