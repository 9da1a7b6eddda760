"""Shared exception types."""


class ContractError(ValueError):
    """An operation was called outside its stated contract."""


class OrderingError(ContractError):
    """A timestamp moved backwards or cannot be compared."""
