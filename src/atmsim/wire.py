"""The cell's geometry: sizes and label ranges every layer shares.

A leaf that imports nothing, so the simulator reads the size of a cell
and the range of a VCI without loading the codec in ``atmsim.cell``.
"""

CELL_BYTES = 53
HEADER_BYTES = 5
PAYLOAD_BYTES = CELL_BYTES - HEADER_BYTES
CELL_BITS = 8 * CELL_BYTES

VCI_MAX = 0xFFFF

ZERO_PAYLOAD = bytes(PAYLOAD_BYTES)
