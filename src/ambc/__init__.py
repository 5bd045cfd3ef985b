"""
Exact combinatorics of the extended affine symmetric group: the affine
matrix-ball construction and everything it computes, including Kazhdan-Lusztig
cell labels, distinguished involutions, the asymptotic Hecke algebra as a
matrix algebra over a representation ring, and the Lusztig-Vogan bijection.
"""

from .affine import (
    AffinePerm,
    Ball,
    InvariantError,
    PartialPerm,
    block_coordinate,
    block_diagonal,
    compose,
    descents,
    from_dominant_weight,
    identity,
    inverse,
    is_nonextended,
    longest_parabolic,
    min_double_coset_rep,
    parse_window,
    format_window,
    shift,
)
from .matrixball import (
    DomTriple,
    Numbering,
    Stream,
    backward_numbering,
    backward_step,
    channel_numbering,
    channels,
    forward_step,
    make_stream,
    phi,
    psi,
    psi_cache_clear,
    psi_cache_info,
    southwest_channel,
)
from .tabloids import (
    Tabloid,
    anticanonical_tabloid,
    canonical_tabloid,
    delta_vec,
    enumerate_tabloids,
    iota_vec,
    is_dominant_wrt,
    local_charge,
    offset_constants,
    omega_tabloid,
    rev_lambda,
    tau,
)
from .cells import (
    CellLabel,
    cell_shape,
    distinguished_involutions,
    is_distinguished,
    left_cell,
    right_cell,
    star_left,
    star_right,
    star_tabloid,
    upsilon,
    upsilon_inverse,
    xi_epsilon,
)
from .repring import (
    FWeight,
    dim_gl,
    is_determinantal,
    tensor_f,
    tensor_gl,
)
from .jring import (
    j_multiply,
    pgl_member,
    sl_reduce,
    t_multiply,
    unit,
)
from .lusztig_vogan import (
    LVPair,
    mu_lambda,
    mu_lambda_zero,
    theta1,
    theta1_inverse,
    w_tableau,
    w_tableau_zero,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
