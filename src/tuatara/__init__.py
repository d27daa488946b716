"""Exact-rational machinery for prefix-free machine domains.

The package computes certified enclosures of halting-probability-style
weight sums and their zeta counterparts, classifies machines by those
sums, builds prefix-free codes from length data, runs a one-combinator
interpreter with budgeted reduction, and measures description
complexity against enumerated machine indices.  Every numeric result is
either an exact Fraction or a two-sided Enclosure; floats never carry
load-bearing values.

Each name is imported from the module that defines it, for example
`from tuatara.machines import zeta_enclosure`; the package re-exports
nothing, so importing one module loads only what that module needs.
"""
