"""detpf: determinantal and pfaffian representations of hypersurfaces over GF(p)."""

__version__ = "0.1.0"

from .exactlin import DEFAULT_PRIME, InputError, PrimeField, ScalarMatrix

__all__ = [
    "DEFAULT_PRIME",
    "InputError",
    "PrimeField",
    "ScalarMatrix",
    "HomogeneousForm",
    "GradedMatrix",
    "LinearSkewMatrix",
    "__version__",
]


def __getattr__(name):
    # keep `import detpf` light; pull the heavier modules in on demand
    if name == "HomogeneousForm":
        from .mpoly import HomogeneousForm

        return HomogeneousForm
    if name in ("GradedMatrix", "LinearSkewMatrix"):
        from . import polymat

        return getattr(polymat, name)
    raise AttributeError(f"module 'detpf' has no attribute {name!r}")
