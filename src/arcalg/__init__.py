"""Exact combinatorics of two-row cup diagrams and their arc algebra."""

from .diagrams import (CIRCLE, LINE, CircleDiagram, Component, CupDiagram,
                       DOWN, EquivalenceData, Shape, StandardTableau, UP,
                       ValidationError, Weight, cup_to_tableau,
                       enumerate_standard, enumerate_weights, epsilon,
                       equivalence, glue, orientation_degree,
                       orientations, orients_with_rays, render_circle_diagram,
                       render_cup, tableau_of_weight, tableau_to_cup,
                       weight_of_tableau, weight_to_C, weight_to_m)
from .cohomology import (GradedDim, PullbackMap, RingPresentation,
                         component_cohomology, intersection_cohomology,
                         intrinsic_min_degree, odd_normalization, poincare,
                         stable_cohomology)
from .arc_algebra import (AlgebraElement, BasisElement, CompositionError,
                          OrderError, StructureTable, basis, check_associativity,
                          check_degree_additivity,
                          check_order_independence, degree, idempotent,
                          low_element, multiply, multiply_nested,
                          structure_table)
from .ktheory import K0Matrix, k0_matrix, length, theta_set, weight_leq

__version__ = "0.1.0"
