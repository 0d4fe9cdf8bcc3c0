"""Almost-coupling Poisson structures on a fibered R^2 x R^3 chart.

The package assembles bivectors from (connection, scalar factor, vertical
1-form) triples, verifies the integrability conditions against the raw
Schouten Jacobiator, classifies rank strata, computes modular vector fields
and unimodularity certificates, applies gauge deformations, and integrates
Hamiltonian flows with conservation diagnostics.
"""

__version__ = "0.1.0"

from .calculus import (
    CoordVector,
    FieldElement,
    cochain_residuals,
    divergence,
    lie_derivative_bivector,
    schouten_bivectors,
    vector_commutator,
)
from .connection import Connection, ConnectionShift, curvature, horizontal_lift, rho, shift, theta
from .errors import (
    AcPoissonError,
    DegreeOverflow,
    DegreeUnderflow,
    DomainError,
    EmptyBox,
    EmptyDomain,
    ExprSyntaxError,
    MissingCertificate,
    MissingSection,
    ModelParseError,
    NonIntegerExponent,
    NotAlmostCoupling,
    NotCasimir,
    NotFlat,
    NotPoissonConnection,
    OrderBudgetExceeded,
    OutsideCouplingDomain,
    OutsideDomain,
    UnknownIdentifier,
    ZeroVolumeFactor,
)
from .expr import parse, to_source
from .fields import (
    ConstField,
    CoordField,
    ExprField,
    Field,
    as_field,
    finite_difference_check,
)
from .gauge import GaugeData, family, scale, varkappa
from .graded import GradedElement, interior
from .model import ModelFile, load, loads, resolve, save
from .modular import UnimodularityCertificate, modular_bigraded, modular_direct
from .strata import (
    SampleSet,
    bivector_rank,
    halton_points,
    matrix_rank,
    sample_box,
)
from .triple import (
    PoissonTriple,
    Section,
    VerticalOneForm,
    equivalence_check,
    flat_triple,
    hamiltonian_field,
    ic_residuals,
    jacobiator,
    poisson_bracket,
    recover_triple,
    vertical_poisson,
)
from .flow import Trajectory, conservation_report, integrate
