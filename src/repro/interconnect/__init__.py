"""2D-torus interconnection network substrate.

The paper's system (Fig. 2) connects 16 processor-memory nodes through a 2D
torus; here the shape generalises to any W x H.  Switches are split into
two *half-switches* (east-west and north-south) so that a single dead
switch element does not partition the machine.  This package models the topology, dimension-order routing with
recomputation around dead elements, per-link serialisation/contention, and
the two fault types used in the evaluation (dropped message, failed switch).
"""
