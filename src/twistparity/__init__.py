"""twistparity: exact local parity bookkeeping for quadratic twist families.

Given y^2 = f(x) with f separable of odd degree over Q, the package
computes the locally determined quantities that control how 2-Selmer
parity moves under quadratic twist: Frobenius cycle types and prime
classes, the bad set Sigma, the local invariants h_v and weights
omega_v, the parity-flip predictor and the disparity constant, plus
independent brute-force oracles (a permutation-module torsion model,
Lagrangian counting over F_2, the Hilbert product formula) and a
verification harness for the worked example curves.
"""

from .report import TOOL_VERSION as __version__  # noqa: F401

from .characters import (  # noqa: F401
    LocalBehavior,
    QuadTwist,
    enumerate_characters,
    local_behavior,
    local_classes,
    local_square_class,
    sigma_trivial,
    twist_norm,
)
from .curves import CurveSpec, curve_hash  # noqa: F401
from .errors import (  # noqa: F401
    BadPrimeError,
    InvalidInputError,
    ParseError,
    ResourceLimitError,
    TwistParityError,
    UnknownFactorizationError,
    UnknownProfileError,
)
from .frobenius import (  # noqa: F401
    GaloisVerdict,
    PrimeCache,
    PrimeClass,
    SigmaSet,
    classify_prime,
    galois_classify,
    prime_scan,
    sigma_set,
)
from .metabolic import (  # noqa: F401
    QuadraticSpace,
    Subspace,
    count_disjoint_lagrangians,
    is_lagrangian,
    lagrangians,
)
from .modular import (  # noqa: F401
    Place,
    factor_degrees,
    factor_integer,
    hilbert_symbol,
    is_prime,
    kronecker_symbol,
    squarefree_part,
)
from .parity import (  # noqa: F401
    DensityResult,
    DisparityReport,
    LocalProfile,
    ParityVerdict,
    delta_inf_closed_form,
    delta_v,
    density_scan,
    disparity,
    global_consistency_check,
    good_prime_h,
    infinity_profile,
    omega_tables,
    omega_v,
    parity_flip,
)
from .ratpoly import (  # noqa: F401
    RatPoly,
    compose_rational,
    discriminant,
    is_separable,
    real_root_signature,
)
from .search import TwistRecipe, find_shift_primes, odd_p_orbit_predicate  # noqa: F401
from .torsion import (  # noqa: F401
    Permutation,
    fixed_space_dim,
    orbit_lengths_coprime,
    rational_two_torsion_dim,
)
