"""Exact enumeration, realization and embedding certification of the
triangulations of the torus (K_{2,2,2,2}), projective plane (K_6) and
Moebius band (K_5).

Import from the modules: ``flextri.surfaces`` (graphs, complexes,
classification), ``flextri.enumeration`` (catalogs and complementary
pairs), ``flextri.geometry`` (exact placements and metrics),
``flextri.verify`` (embedding certificates), ``flextri.numeric`` (the exact
field) and ``flextri.cli`` (the ``flextri`` command).
"""

__version__ = "0.1.0"
