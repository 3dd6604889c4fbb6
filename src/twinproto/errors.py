"""Exception types shared across the package.

Grouped here because most of them cross module boundaries: a codec error can
surface in a device loop, a closed connection surfaces in the harness, and so
on. Each class carries just enough context to be actionable in a log line.
"""


class TwinprotoError(Exception):
    """Base class for every error raised by this package."""


# -- wire codec ---------------------------------------------------------------

class CodecError(TwinprotoError):
    pass


class ValueOutOfRange(CodecError):
    """Message value does not fit its kind's encoding range."""


class UnknownOpcode(CodecError):
    """First payload byte is not a known opcode."""


class TruncatedPayload(CodecError):
    """Payload length is inconsistent with the opcode."""


# -- runtime ------------------------------------------------------------------

class ChannelClosed(TwinprotoError):
    """Blocking op on a closed in-process channel (drained first on reads)."""


# -- transport ----------------------------------------------------------------

class TransportError(TwinprotoError):
    pass


class ConnectionClosed(TransportError):
    """Read or write on an endpoint whose stream has been closed."""


class FrameTooLarge(TransportError):
    """Frame payload exceeds the 2**20 byte ceiling."""


# -- devices ------------------------------------------------------------------

class DeviceError(TwinprotoError):
    pass


class CommandRejected(DeviceError):
    """Device received a message outside its accepted command set."""


class ContextExhausted(DeviceError):
    """One-shot emulator context has no recordings left."""


class RecordingMissing(DeviceError):
    """Prototype assembly configured without a loadable recording."""


# -- state machine ------------------------------------------------------------

class KindRejected(TwinprotoError):
    """Event kind the state machine does not process (measurements)."""


# -- digital thread -----------------------------------------------------------

class ThreadLogError(TwinprotoError):
    pass


class CorruptRecord(ThreadLogError):
    """Unparseable thread record line. Carries the failing sequence number."""

    def __init__(self, msg, seq=None):
        super().__init__(msg)
        self.seq = seq


# -- mape-k -------------------------------------------------------------------

class GateRejected(TwinprotoError):
    """Planned command failed the model simulation gate; nothing was sent."""


# -- harness ------------------------------------------------------------------

class ConfigError(TwinprotoError):
    """Bad run configuration; maps to process exit code 2."""


class ScenarioError(ConfigError):
    """Bad scenario file; maps to process exit code 2."""


class KernelHalted(TwinprotoError, RuntimeError):
    """Lockstep run halted at its safety limit or in a deadlock."""


class TaskStopped(TwinprotoError):
    """Internal: raised inside a task when the runtime is shutting down."""
