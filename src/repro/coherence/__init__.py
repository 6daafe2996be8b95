"""Directory cache-coherence protocols (SGI-Origin-like MOSI lineage).

The paper layers SafetyNet on "a typical MOSI directory protocol" with
three changes (paper §3.7): data responses carry the checkpoint number of
the transaction's point of atomicity, directories and processors may NACK
requests to avoid filling a CLB, and three-hop transactions end with a
final acknowledgment from the requestor to the directory.

The home directory here is *blocking*: it serialises transactions per
block, queueing (bounded) or NACKing requests that arrive while a
transaction is open.  This is the same class of simplification the
Origin's busy states make, and it keeps every race window closed enough
to verify recovery consistency exactly.

Which protocol the controllers speak (mosi / mesi / moesi) is a
:class:`~repro.coherence.protocol.CoherenceProtocol` chosen through the
``PROTOCOLS`` registry; checkpoint/recovery machinery is shared by all.
"""
