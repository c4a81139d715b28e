"""Exact arithmetic for the Eisenstein modular group of the
signature-(3,1) Hermitian form: membership testing and constructive
decomposition into generator words, with no floating point anywhere in
the group theory."""

from .eisenstein import (OMEGA, ONE, UNITS, ZERO, EisensteinInt,
                         round_nearest)
from .finite_unitary import U1, U2, enumerate_group, u_decompose
from .hermitian import (check_membership, image_of_infinity, inversion,
                        matrix_from_json_text, rotation_matrix,
                        translation_matrix, unit_correction)
from .words import evaluate, parse, serialize
from .decomposer import (decompose, decompose_traced, step_bound,
                         translation_data, verify)
