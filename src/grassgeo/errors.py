"""Exception hierarchy shared across the package, and Frozen, the base of its value classes."""


class Frozen:
    """Base of the package's value classes, written out by hand so that importing a module
    generates no code.  A subclass lists its fields in __slots__ and sets them in its own
    __init__ through object.__setattr__; assigning or deleting a field afterwards raises
    AttributeError, and ==, hash and repr run over the field values in slot order.  == compares
    field by field, and a field with a shape (an array or numpy scalar) equals another only
    if that has the same shape (a Python scalar has none) and every entry is equal, so ==
    never broadcasts; hash of an object that holds an array raises TypeError, as the array
    is unhashable."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(_field_equal, self._values(), other._values()))

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


def _field_equal(a, b) -> bool:
    shape = getattr(a, "shape", None)
    if shape is None and getattr(b, "shape", None) is None:
        return a == b
    return shape == getattr(b, "shape", None) and bool((a == b).all())


class GrassGeoError(Exception):
    """Base class for all errors raised by this package."""


class NumericalFailure(GrassGeoError):
    """A dense linear algebra routine failed to converge."""


class SingularityError(GrassGeoError):
    """A scalar function was evaluated at a singular value where it is undefined."""


class PreconditionError(GrassGeoError):
    """An operation was called with inputs violating its contract."""


class DomainError(GrassGeoError):
    """Input lies outside the domain of the requested map."""


class OnPolarDivisorError(DomainError):
    """The plane has no chart coordinates: it meets the orthocomplement of the
    chart origin, i.e. it lies on the polar divisor."""


class ConjugateToChartError(DomainError):
    """A tangent vector hits a tan singularity; the chart image is undefined
    but the frame image (exp0_frame) still exists."""


class LeftChartError(GrassGeoError):
    """A geodesic integration left the coordinate chart mid-trajectory."""


class WrongChartError(GrassGeoError):
    """The selected rows do not give an invertible block; the plane is not
    representable in the requested chart."""


class DiastasisUndefinedError(DomainError):
    """The diastasis is undefined: the second plane leaves the chart of the first, on its
    polar divisor, where the smallest cosine of their angles is below 1e-12."""


class UnsupportedSpaceError(GrassGeoError):
    """Operation defined only for one curvature sign."""


class DegenerateSpectrumError(GrassGeoError):
    """Hamiltonian coefficients are not pairwise distinct."""


class ConsistencyError(GrassGeoError):
    """Two internal criteria that must agree disagreed."""


class EnumerationSizeError(GrassGeoError):
    """A combinatorial enumeration would exceed the supported size."""
