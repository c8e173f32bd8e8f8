"""Exact rational weighted sum-of-squares certificates on finite
semialgebraic sets defined by zero-dimensional polynomial systems."""

from .polyring import Polynomial, evaluate, height, round_binary

__all__ = ["Polynomial", "evaluate", "height", "round_binary"]

__version__ = "0.1.0"
