"""Exception types shared across the package.

Every rejected input raises a subclass of :class:`CFColorError`, so callers
(and the command line driver) can distinguish bad input from genuine bugs.
"""

from __future__ import annotations


class CFColorError(Exception):
    """Base class for all input-contract violations raised by this package."""


class SelfLoopError(CFColorError):
    def __init__(self, position: int, vertex: int) -> None:
        self.position = position
        self.vertex = vertex
        super().__init__(f"edge {position} is a self loop at vertex {vertex}")


class DuplicateEdgeError(CFColorError):
    def __init__(self, position: int, edge: tuple[int, int]) -> None:
        self.position = position
        self.edge = edge
        super().__init__(f"edge {position} duplicates {edge}")


class VertexOutOfRangeError(CFColorError):
    def __init__(self, position: int, vertex: int, n: int) -> None:
        self.position = position
        self.vertex = vertex
        super().__init__(f"edge {position} names vertex {vertex}, valid range is 0..{n - 1}")


class EdgeOutOfRangeError(CFColorError):
    def __init__(self, edge_id: int, m: int) -> None:
        self.edge_id = edge_id
        super().__init__(f"edge id {edge_id} out of range, graph has {m} edges")


class SizeMismatchError(CFColorError):
    def __init__(self, expected: int, actual: int) -> None:
        self.expected = expected
        self.actual = actual
        super().__init__(f"coloring covers {actual} edges, graph has {expected}")


class FormatError(CFColorError):
    """Malformed input: text (edge list, coloring file, generator spec), or
    an edge that is not a pair of integers."""


class NotBipartiteError(CFColorError):
    def __init__(self, odd_cycle: tuple[int, ...] | None = None) -> None:
        self.odd_cycle = odd_cycle
        detail = f", odd cycle {list(odd_cycle)}" if odd_cycle else ""
        super().__init__(f"graph is not bipartite{detail}")


class IsolatedVertexError(CFColorError):
    def __init__(self, vertex: int) -> None:
        self.vertex = vertex
        super().__init__(f"vertex {vertex} is isolated")


class IsolatedYVertexError(CFColorError):
    def __init__(self, vertex: int) -> None:
        self.vertex = vertex
        super().__init__(f"Y-side vertex {vertex} has no neighbour, cannot be dominated")


class PartialNotSatisfyingError(CFColorError):
    def __init__(self, unsatisfied: list[int]) -> None:
        self.unsatisfied = unsatisfied
        super().__init__(f"partial coloring leaves edges unsatisfied: {unsatisfied}")


class ImproperColoringError(CFColorError):
    def __init__(self, edge: tuple[int, int]) -> None:
        self.edge = edge
        super().__init__(f"vertex classes collide on edge {edge}")


class CycleTooShortError(CFColorError):
    def __init__(self, n: int) -> None:
        self.n = n
        super().__init__(f"cycle needs at least 3 vertices, got {n}")


class NotATreeError(CFColorError):
    def __init__(self, reason: str) -> None:
        super().__init__(f"input graph is not a tree: {reason}")


class TooFewEdgesError(CFColorError):
    def __init__(self, m: int, needed: int) -> None:
        super().__init__(f"need at least {needed} edges, got {m}")


class CertificateRejectedError(CFColorError):
    def __init__(self, violated: list[int]) -> None:
        self.violated = violated
        super().__init__(f"edge subset rejected, violated edges: {violated}")


class NotConflictFreeError(CFColorError):
    def __init__(self, unsatisfied: list[int]) -> None:
        self.unsatisfied = unsatisfied
        super().__init__(f"coloring is not conflict-free, unsatisfied edges: {unsatisfied}")


class NotTwoColorsError(CFColorError):
    def __init__(self, detail: str) -> None:
        super().__init__(f"expected a total coloring with colors {{1, 2}}: {detail}")


class SizeTooSmallError(CFColorError):
    def __init__(self, detail: str) -> None:
        super().__init__(f"size too small: {detail}")


class ProbabilityOutOfRangeError(CFColorError):
    def __init__(self, p: float) -> None:
        self.p = p
        super().__init__(f"edge probability must lie in [0, 1], got {p}")


class EnumerationTooLargeError(CFColorError):
    def __init__(self, n: int, limit: int) -> None:
        super().__init__(f"enumeration of labelled trees on {n} vertices exceeds limit n <= {limit}")


class BudgetExceededError(CFColorError):
    """Raised where an exhaustive search outcome is required but the state
    budget ran out before the search finished."""

    def __init__(self, states: int) -> None:
        self.states = states
        super().__init__(f"search budget exhausted after {states} states")
