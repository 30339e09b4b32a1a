"""Exact genus computations for quotients of the Hermitian function field
y^q + y = x^(q+1) over F_{q^2} by subgroups of its automorphism group."""

from .gf import BudgetExceeded, FieldTower, GFError, build_tower
from .curve import P_INF, Place, rational_place, rational_places, degree3_places
from .autgrp import (Aut, DSLError, Group, aut_order, close_group, compose,
                     epsilon, from_affine, group_from_spec, identity, inverse,
                     omega, parse_spec, sigma4, sigma5)
from .localval import (LocalFrame, OrbitRow, expand_at, i_value,
                       ramification_data)
from .formulas import (CASES, HypothesisNotMet, VSequence, case_modulus,
                       case_spec, expected_genus, sigma_order)
from .engine import (EngineError, GenusReport, genus_of_quotient,
                     tame_diff_crosscheck)

__version__ = "0.1.0"
