"""The one idiom for a record whose fields are checked."""


class Checked:
    """Mixin for a ``NamedTuple`` subclass with ``__slots__ = ()``: every instance
    comes from ``_validated``, which raises on a bad field."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs)._validated()

    @classmethod
    def _make(cls, iterable):
        # NamedTuple's _make, which _replace calls, would skip __new__
        return cls(*iterable)
