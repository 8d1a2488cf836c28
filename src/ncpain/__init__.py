"""Noncommutative Painleve II toolkit: rings, quasideterminants, Lax pairs,
Darboux dressing, and the experiment CLI.

Import each name from the submodule that defines it, e.g.
``from ncpain.ring import MatrixElement``.
"""

__version__ = "0.1.0"
