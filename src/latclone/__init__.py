"""Workbench for idempotent aggregation functions on finite bounded lattices.

Builds finite lattices, represents total n-ary functions on them as value
tables, and implements the generator families (chi, iota, mu, oplus) that
generate the clone of idempotent aggregation functions, together with the
constructive term decompositions, a brute-force composition-closure oracle,
and generator counting for the chain and M-family extremes.
"""

from .clone import (
    ClosureReport,
    VerificationReport,
    certify,
    closure,
    format_closure_report,
    format_verification_report,
    verify_generation,
)
from .decompose import (
    decompose_id,
    decompose_id_reduced,
    h_agg_term,
    simplify,
)
from .errors import LatcloneError
from .functable import (
    FnTable,
    compose,
    count_class,
    enumerate_class,
    is_aggregation,
    is_boundary,
    is_idempotent,
    is_intermediate,
    is_monotone,
    join_fn,
    leq_pointwise,
    meet_fn,
    parse_function,
    format_function,
    pointwise_join,
    pointwise_meet,
    projection,
)
from .generators import (
    GeneratorSpec,
    count_generators_chain,
    count_generators_m,
    h_agg,
    h_id,
    h_majorant,
    make_chi,
    make_chi_unchecked,
    make_iota,
    make_mu,
    make_oplus,
    parse_spec,
    reduce_iota_pair,
    reduced_generator_set,
)
from .lattice import (
    Lattice,
    boolean,
    chain,
    format_lattice,
    from_covers,
    m_lattice,
    n5,
    parse_lattice,
)
from .terms import (
    Apply,
    Join,
    Meet,
    Term,
    Var,
    evaluate,
    parse_term,
    print_term,
    to_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
