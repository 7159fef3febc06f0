"""Exception types shared across the package."""


class GraphError(Exception):
    """Base class for all errors raised by this package."""


class SelfLoopError(GraphError):
    def __init__(self, u):
        self.vertex = u
        super().__init__(f"self-loop at vertex {u}")


class DuplicateEdgeError(GraphError):
    def __init__(self, u, v):
        self.edge = (u, v)
        super().__init__(f"duplicate edge ({u}, {v})")


class BadVertexError(GraphError):
    def __init__(self, v, vertex_count):
        self.vertex = v
        super().__init__(f"vertex {v} out of range for {vertex_count} vertices")


class ParseError(GraphError):
    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class TooSmallError(GraphError):
    pass


class BadParamsError(GraphError):
    pass


class OverBudgetError(GraphError):
    def __init__(self, vertex_count, max_vertices):
        self.vertex_count = vertex_count
        self.max_vertices = max_vertices
        super().__init__(
            f"graph has {vertex_count} vertices, exceeds search limit {max_vertices}"
        )


class BudgetExceededError(GraphError):
    def __init__(self, states):
        self.states = states
        super().__init__(f"visited-state guard tripped after {states} states")


class NotRejectedError(GraphError):
    pass


class BadRangeError(GraphError):
    pass
