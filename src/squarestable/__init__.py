"""Exact invariants, recognizers, codecs and a claim-checking harness for
Konig-Egervary square-stable graphs.

The package namespace re-exports nothing: import from the submodules
(``squarestable.graphs``, ``squarestable.invariants``, ...), so a command
loads only the layers it runs."""

__version__ = "0.1.0"
