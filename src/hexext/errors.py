"""Exception types shared across the package."""


class HexextError(Exception):
    """Base class for structured failures."""


class WellDefinednessError(HexextError):
    """A candidate morphism matrix does not map source relations into the
    target relation span; carries the index of the first violating relation
    column."""

    def __init__(self, first_violation: int):
        self.first_violation = first_violation
        super().__init__(f"relation column {first_violation} is not respected")


class NonComposableError(HexextError):
    pass


class NotExactError(HexextError):
    def __init__(self, position: str):
        self.position = position
        super().__init__(f"sequence fails exactness at {position}")


class ArgumentMismatchError(HexextError):
    pass


class InvalidDiagramError(HexextError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations) or "invalid diagram")


class FrameInvalidError(HexextError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations) or "invalid hexagon frame")


class NotExtendableError(HexextError):
    """Raised when a diagram admits no middle object; carries the obstruction
    report, whose sum is nonzero."""

    def __init__(self, report):
        self.report = report
        super().__init__("diagram does not extend")


class ClassesDifferError(HexextError):
    pass


class LambdaNotExtendableError(HexextError):
    pass


class BudgetExceededError(HexextError):
    pass
