"""Error hierarchy. Each subsystem tags its errors so the CLI can report
`error [subsystem]: message` and exit nonzero."""


class JointKgError(Exception):
    module = "jointkg"


class KgDataError(JointKgError):
    module = "kgdata"


class ParseError(KgDataError):
    pass


class DiffError(JointKgError):
    module = "diff"


class CompletionError(JointKgError):
    module = "completion"


class AlignmentError(JointKgError):
    module = "alignment"


class EnTrError(JointKgError):
    module = "entr"


class TrainError(JointKgError):
    module = "train"


class EvalError(JointKgError):
    module = "evaluate"


class SynthError(JointKgError):
    module = "synth"
