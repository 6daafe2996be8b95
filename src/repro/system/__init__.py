"""System assembly: nodes and the W x H torus machine."""
