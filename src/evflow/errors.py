"""Exception types raised across the toolkit.

Everything derives from EvflowError so callers (and the CLI) can catch
data/model errors in one place without swallowing programming errors.
"""


class EvflowError(Exception):
    """Base class for all toolkit errors."""


# --- event stream decoding / validation ---

class BadMagic(EvflowError):
    """Blob does not start with the expected format magic."""


class TruncatedRecord(EvflowError):
    """Binary payload length is not a whole number of records."""


class OutOfBounds(EvflowError):
    """Event coordinates exceed the sensor geometry."""


class NonMonotonic(EvflowError):
    """Timestamps decrease along the stream."""


class InvalidInterval(EvflowError):
    """Interval with t0 > t1."""


# --- synthetic generation ---

class DegenerateTrajectory(EvflowError):
    """Moving disc never intersects the sensor."""


# --- accumulation ---

class InvalidWindow(EvflowError):
    """Non-positive integration window."""


class UpscaleUnsupported(EvflowError):
    """Requested output dimension exceeds the input frame."""


# --- synchronization ---

class ZeroVariance(EvflowError):
    """Constant input where a correlation needs spread."""


class ShapeMismatch(EvflowError):
    """Grids with unequal dimensions."""


class InsufficientOverlap(EvflowError):
    """A candidate offset has no scorable frame pairs."""


# --- camera geometry ---

class NoConvergence(EvflowError):
    """Iterative undistortion did not reach the residual tolerance."""


class BehindCamera(EvflowError):
    """Transferred ray has non-positive depth in the target camera."""


class OffSensor(EvflowError):
    """Transferred box falls entirely outside the target sensor."""


class NonOrthonormalRotation(EvflowError):
    """Rotation matrix is not close enough to orthonormal, or is a reflection."""


# --- labels / evaluation ---

class NoGroundTruth(EvflowError):
    """Average precision asked for with an empty ground-truth set."""


# --- power / benchmarking ---

class NonUniformSampling(EvflowError):
    """Power trace timestamps deviate from a uniform grid."""


class NegativeVoltage(EvflowError):
    """Power trace contains a negative voltage sample."""


class EmptyTrace(EvflowError):
    """Power trace with no samples."""


class TraceTooShort(EvflowError):
    """Trace shorter than the smoothing window."""


class WindowOutOfRange(EvflowError):
    """Integration window outside the trace extent."""


class ZeroFrames(EvflowError):
    """Per-frame energy asked for with zero frames."""


class MissingInput(EvflowError):
    """Batch sweep missing data for a requested batch size."""


# --- configuration and calibration documents ---

class ConfigInvalid(EvflowError):
    """Configuration or calibration value is malformed or violates its invariants."""


class MissingField(ConfigInvalid):
    """Configuration or calibration document lacks a required key."""
