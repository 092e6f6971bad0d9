"""Coloured Petri nets as linear data over finite place/transition spaces.

Modules:

* ``topology``: finite spaces whose opens are place-bordered node sets, and
  the continuous maps between them
* ``intlinalg``: exact integer and rational linear algebra (Hermite and
  Smith forms, lattices, invariant factors, Hilbert bases)
* ``net``: coloured nets, flows of closed regions, marking classes of open
  regions, gluing axiom verifiers
* ``morphism``: net morphisms given by canonical-basis data, verification
  clauses, classification, multirelation (place/transition) morphisms
* ``behaviour``: markings, firing, reachability, behaviour transport along
  verified morphisms
* ``product``: synchronous products, projections, mediating morphisms,
  inverse images and fibre products
* ``formats``: plain text formats for nets and morphisms
* ``cli``: the ``petrisheaf`` command line tool
"""

__version__ = "0.1.0"
