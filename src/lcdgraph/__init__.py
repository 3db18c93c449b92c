"""Preferential-attachment random graphs via chord diagrams.

Three constructions that are equal in law at every n (sequential attachment,
uniform chord-diagram pairings, Polya-urn stick breaking), exact
combinatorial oracles for the m = 1 degree law, and a desk-scale
experiment harness.  Import the library by module, for example
``from lcdgraph.processes import generate``.
"""

__version__ = "0.1.0"
