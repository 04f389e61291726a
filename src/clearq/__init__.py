"""Two-server-type clearing system: exact DP, threshold heuristics, simulation."""

from .model import SystemParams
from .policies import pi_prime
from .solver import diff, solve_optimal, solve_under_policy

__version__ = "0.1.0"
