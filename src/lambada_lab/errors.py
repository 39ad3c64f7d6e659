"""Exception types surfaced by the simulated cloud substrate and engine."""


class SimError(Exception):
    pass


class NoSuchBucket(SimError):
    pass


class KeyTooLong(SimError):
    pass


class NotFound(SimError):
    pass


class InvalidRange(SimError):
    pass


class Throttled(SimError):
    """Raised once the retry budget against a rate limiter is exhausted."""


class PayloadTooLarge(SimError):
    pass


class BadMagic(SimError):
    pass


class CorruptFooter(SimError):
    pass


class CorruptChunk(SimError):
    pass


class TypeMismatch(SimError):
    pass


class EmptyRowGroup(SimError):
    pass


class UnknownColumn(SimError):
    pass


class WorkerError(SimError):
    def __init__(self, worker_id: int, kind: str, message: str):
        super().__init__(f"worker {worker_id} failed: {kind}: {message}")
        self.worker_id = worker_id
        self.kind = kind
        self.message = message


class WorkerOutOfMemory(SimError):
    pass


class DegenerateInput(SimError):
    pass


class ConfigError(SimError):
    pass
