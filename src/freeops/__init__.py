"""Exact-arithmetic toolkit for channel-semigroup membership searches,
tile-matching problems, and reachability monotones.

Names are imported from the module that defines them, e.g.
`from freeops.resourcegraph import explore`."""

__version__ = "0.1.0"
