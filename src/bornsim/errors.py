"""The one exception type raised by the public API."""


class BornsimError(ValueError):
    """A bad input or an undefined result; the message says which."""
