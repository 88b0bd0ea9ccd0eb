"""Symbolic-numeric toolkit for reducing second-order ODEs with polynomial
coefficients to hypergeometric form and solving the resulting spectral
problems with classical orthogonal polynomials and hypergeometric functions.

``import nu_spectral`` loads only this shell.  The first attribute it does
not hold loads every layer below and binds the names of ``__all__`` here
(PEP 562), so ``nu_spectral.X`` works as with eager imports, while a
process that imports one layer (``nu_spectral.hyper``, or the exact
``nu_spectral.reduction``) pays for that layer alone: only ``oracle`` and
``potentials`` load numpy.
"""

import importlib

__version__ = "0.1.0"

# the exported names of each layer, in load order
_LAYERS = {
    "errors": (
        "AmbiguousBranch",
        "CountMismatch",
        "EmptySpectrum",
        "EnergyBelowRegion",
        "GridTooCoarse",
        "NoAdmissibleBranch",
        "NoConvergence",
        "NoPerfectSquare",
        "NoScatteringRegion",
        "NonFiniteEnergy",
        "NuSpectralError",
        "ParseError",
    ),
    "scalars": ("SurdSum", "as_exact", "scalar_float", "sqrt_scalar"),
    "polynomials": ("HALF_LINE", "REAL_LINE", "UNIT_INTERVAL", "Interval", "Polynomial"),
    "hyper": (
        "Limit2F1",
        "SeriesResult",
        "gamma_fn",
        "hermite_fn",
        "hyp1f1",
        "hyp2f1",
        "hyp2f1_regularized",
        "hypU",
        "limit_2f1_at_1",
        "pochhammer",
        "wronskian_defect",
    ),
    "classical": (
        "CanonicalHde",
        "classify_canonical",
        "eigen_lambda",
        "norm_sq",
        "recurrence_poly",
        "rodrigues_poly",
    ),
    "reduction": (
        "EpsAffinePoly",
        "FactorizedFunction",
        "GheProblem",
        "NuBranch",
        "ReductionResult",
        "branch_candidates",
        "chi_from_pi",
        "parse_ghe_text",
        "pearson_weight",
        "reduce_ghe",
    ),
    "oracle": (
        "FdGrid",
        "compare_spectra",
        "fd_bound_states",
        "inner_product",
        "norm_defect",
        "orthogonality_defect",
        "quad_adaptive",
        "tanh_sinh",
    ),
    "potentials": (
        "BoundState",
        "PotentialSpec",
        "ScatteringState",
        "bound_spectrum",
        "bound_state",
        "eigen_eps",
        "eigenvalue_count",
        "harmonic",
        "morse",
        "normalization_defect",
        "oracle_spectrum",
        "pinned_branch",
        "rosen_morse2",
        "scattering_states",
        "wavefunction_residual",
    ),
}

__all__ = sorted(name for names in _LAYERS.values() for name in names)


def __getattr__(name):
    # the import machinery probes dunder names; loading numpy for them
    # would defeat the point
    if not name.startswith("__"):
        namespace = globals()
        for layer, names in _LAYERS.items():
            module = importlib.import_module(f"{__name__}.{layer}")
            for export in names:
                # setdefault: a name rebound here since (a patch, a wrapper)
                # stays as it is
                namespace.setdefault(export, getattr(module, export))
        if name in namespace:
            return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
