"""Numerical toolkit for sup-defined function-space seminorms, their
vanishing subspaces, and the tail-limit formula for the distance between the
two, instantiated for six concrete spaces on the circle, disc, torus and
boxes in R^n.
"""

from .errors import ConfigError, NumericalError
from .funcrep import (BoxDomain, EuclideanSamples, PeriodicSamples,
                      QuadratureRule, TaylorFunction, TorusSamples,
                      disk_quadrature, mobius_apply, x_norm)
from .family import (OperatorFamilyGrid, SeminormReport, TailProfile,
                     dyadic_scales, limsup_estimate, seminorm_sup,
                     tail_profile)
from .spaces import (KKernel, SpaceDescriptor, WeightV, build_family,
                     compose_mobius, kernel_from_config, weight_from_config)
from .approx import (ApproxFamily, AssumptionReport, assumption_check, dilate,
                     dilation_family, fejer_family, fejer_taylor,
                     lip_smooth, lip_smooth_family, poisson_family,
                     poisson_torus_family)
from .distance import (DistanceReport, certification_threshold,
                       distance_estimate, sandwich_check)
from .builtins import make_function

__version__ = "0.1.0"
