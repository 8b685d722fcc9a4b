"""History-based simplex pivot rules on acyclic unique sink orientations.

Builds the three recursive lower-bound families (round-robin,
least-recently-basic, least-entered), runs the rules under the
vertex-oracle model, and verifies the structural and behavioral claims at
desk scale.
"""

__version__ = "0.1.0"
