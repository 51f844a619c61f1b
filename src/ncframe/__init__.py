"""Lorentz-group small groups and nonlinear constitutive relations.

The package provides the spinor parametrization of the proper orthochronous
Lorentz group with its complex orthogonal and real 4x4 vector images, the
stabilizer subgroup and canonical frame of an arbitrary noncommutativity
vector K = n + i*m, rotation/boost factorizations, and the first-order
constitutive relations of noncommutative electrodynamics with their
covariance and discrete dual symmetry.  The ``ncframe`` CLI exposes the main
operations with JSON input/output.
"""

from importlib import import_module

from . import errors

# The module that defines each public name.  A name is imported on its first
# access (PEP 562), so ``import ncframe`` loads neither the numerical modules
# nor numpy.
_HOMES = {
    "electrodynamics": (
        "NATURAL", "DualFrame", "FieldState", "UnitSystem", "constitutive_forward",
        "constitutive_inverse", "constitutive_real_forward", "constitutive_real_inverse",
        "covariance_residual", "dual_invariance_residual", "dual_transform",
        "gr_constraint_residual", "gr_from_fields", "maxwell_variable_check",
    ),
    "factorization": (
        "FactorOrder", "RotationBoostPair", "factor_boost_rotation", "factor_isotropic",
        "factor_rotation_boost", "isotropic_sign", "scale_freedom_report",
    ),
    "group": (
        "ETA", "ComplexRotation", "Lorentz4", "SpinorElement", "lorentz4_from_spinor",
        "project_to_group", "so3c_from_spinor", "spinor_compose", "spinor_from_boost",
        "spinor_from_rotation", "verify_su2_boost_identities",
    ),
    "linalg": ("bilinear_dot", "hnorm", "inf_norm"),
    "stabilizer": (
        "EPS_ISO", "NCClass", "NCParameter", "StabilizerElement", "Subcase", "K_to_theta",
        "canonical_frame", "classify", "invariants", "isotropic_stabilizer_element",
        "reduce_to_real", "stabilizer_element", "theta_to_K", "unit_delta",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["errors", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
