"""Domain model for ethical value registers.

A :class:`RegisterDocument` holds one project's full register: the system of
interest and its partner systems, stakeholders, contexts of use, elicitation
material, the core-value / value-quality / EVR chain with threats, controls
and dispositions hanging off it, plus attestations and lifecycle decisions.

Documents are immutable after construction.  Every operation in this package
returns a new value or a report; nothing mutates a document in place.
Structural checking lives in :func:`validate_register`, which returns the
complete list of violations instead of raising on the first one, so that the
text front end can report many problems per run.
"""

import datetime
import re
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields, replace
from enum import Enum
from functools import cached_property
from itertools import chain
from operator import attrgetter
from reprlib import recursive_repr


def record(cls):
    """``@dataclass(frozen=True)``, built for less: every CLI start builds
    all of the package's records, and dataclass compiles an ``__init__``, a
    ``__setattr__`` and a ``__delattr__`` for each.  Here dataclass only
    collects the fields, so ``fields``, ``replace``, ``asdict`` and
    ``__match_args__`` work as before, and the class is marked frozen, so a
    ``@dataclass(frozen=True)`` may subclass it.  ``__init__`` is compiled
    once per class (:func:`_initializer`).  ``__setattr__``, ``__delattr__``,
    ``hash`` and ``repr`` are closures over the field names that keep
    dataclass's behaviour and messages.  ``==`` compiles dataclass's
    field-tuple comparison on its first call, because it runs on hot paths
    (the canonical fixed-point check, a diff), where a closure compares
    about 1.7 times slower.  None of them reads the instance ``__dict__``,
    which holds a document's cached index."""
    cls = dataclass(cls, init=False, eq=False, repr=False)
    cls.__dataclass_params__.frozen = True
    names = tuple(f.name for f in fields(cls))

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    def __eq__(self, other):
        cls.__eq__ = _field_equality(names)
        return cls.__eq__(self, other)

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in names))

    @recursive_repr()
    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({inner})"

    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, __hash__, __repr__
    cls.__init__ = _initializer(cls)
    return cls


class _Factory:
    def __repr__(self):
        return "<factory>"


_FACTORY = _Factory()  # the default of a ``default_factory`` field, as signatures show it


def _initializer(cls):
    """The ``__init__`` dataclass would write for a frozen ``cls``: one
    ``object.__setattr__`` per field, a ``default_factory`` called when its
    argument is left out, and the fields' annotations, so that
    ``inspect.signature(cls)`` reads as dataclass's would."""
    namespace = {"__name__": cls.__module__, "__set": object.__setattr__,
                 "__factory": _FACTORY}
    params, body = [], []
    for f in fields(cls):
        value = f.name
        if f.default is not MISSING:
            namespace[f"__default_{f.name}"] = f.default
            params.append(f"{f.name}=__default_{f.name}")
        elif f.default_factory is not MISSING:
            namespace[f"__make_{f.name}"] = f.default_factory
            params.append(f"{f.name}=__factory")
            value = f"__make_{f.name}() if {f.name} is __factory else {f.name}"
        else:
            params.append(f.name)
        body.append(f"    __set(self, {f.name!r}, {value})\n")
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(body)}", namespace)
    init = namespace["__init__"]
    init.__annotations__ = {f.name: f.type for f in fields(cls)} | {"return": None}
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _field_equality(names: tuple[str, ...]):
    mine = "".join(f"self.{name}, " for name in names)
    theirs = "".join(f"other.{name}, " for name in names)
    namespace: dict = {}
    exec("def __eq__(self, other):\n"
         "    if other.__class__ is self.__class__:\n"
         f"        return ({mine}) == ({theirs})\n"
         "    return NotImplemented\n", namespace)
    return namespace["__eq__"]


class Phase(str, Enum):
    CONCEPT = "concept"
    EXPLORATION = "exploration"
    DESIGN = "design"
    DEPLOYMENT = "deployment"


PHASE_ORDER = {phase: order for order, phase in enumerate(Phase)}


def phase_at_least(phase: Phase, floor: Phase) -> bool:
    return PHASE_ORDER[phase] >= PHASE_ORDER[floor]


class CooperationType(str, Enum):
    VIRTUAL = "virtual"
    COLLABORATIVE = "collaborative"
    ACKNOWLEDGED = "acknowledged"
    DIRECTED = "directed"


class StakeholderKind(str, Enum):
    DIRECT = "direct"
    INDIRECT = "indirect"


class CaptureStage(str, Enum):
    PRE_DESIGN = "pre_design"
    POST_DEPLOYMENT = "post_deployment"


class LensKind(str, Enum):
    UTILITARIAN = "utilitarian"
    VIRTUE = "virtue"
    DUTY = "duty"
    CULTURAL = "cultural"


class Polarity(str, Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


class QualityDirection(str, Enum):
    SUPPORTS = "supports"
    UNDERMINES = "undermines"


class QualitySource(str, Enum):
    STAKEHOLDER = "stakeholder"
    CONCEPTUAL_INVESTIGATION = "conceptual_investigation"
    POST_DEPLOYMENT = "post_deployment"


class EvrKind(str, Enum):
    ORGANIZATIONAL = "organizational"
    TECHNICAL = "technical"


class RiskPath(str, Enum):
    UNCLASSIFIED = "unclassified"
    LOW = "low"
    HIGH = "high"


class HarmLikelihood(str, Enum):
    UNLIKELY = "unlikely"
    REASONABLY_LIKELY = "reasonably_likely"


class ControlForm(str, Enum):
    FUNCTIONAL = "functional"
    NON_FUNCTIONAL = "non_functional"
    OPERATIONAL = "operational"
    PROCEDURAL = "procedural"
    ORGANIZATIONAL = "organizational"
    STRUCTURAL = "structural"


class ControlStatus(str, Enum):
    PROPOSED = "proposed"
    ACCEPTED = "accepted"
    IMPLEMENTED = "implemented"


class SignatoryRole(str, Enum):
    EXECUTIVE = "executive"
    ENGINEER = "engineer"
    STAKEHOLDER_REP = "stakeholder_rep"
    VALUE_EXPERT = "value_expert"


class SubjectKind(str, Enum):
    PRIORITY_DECISION = "priority_decision"
    RISK_ACCEPTANCE = "risk_acceptance"
    MISSION = "mission"
    INVESTMENT_DECISION = "investment_decision"
    RULE = "rule"


class Verdict(str, Enum):
    GO = "go"
    NO_GO = "no_go"


THRESHOLD_COMPARATORS = ("<", "<=", "=", ">=", ">")

IDENT_RE = re.compile(r"^(?!end\Z)[A-Za-z_][A-Za-z0-9_]*\Z")  # ``end`` closes a block
# A numbered id's groups are its prefix, which names its parent, and its number.
QUALITY_ID_RE = re.compile(r"^([1-9][0-9]*)\.([1-9][0-9]*)\Z")
EVR_ID_RE = re.compile(r"^([1-9][0-9]*\.[1-9][0-9]*)\.([1-9][0-9]*)\Z")
THREAT_ID_RE = re.compile(r"^([1-9][0-9]*\.[1-9][0-9]*\.[1-9][0-9]*)-T([1-9][0-9]*)\Z")
CONTROL_ID_RE = re.compile(r"^([1-9][0-9]*\.[1-9][0-9]*\.[1-9][0-9]*)-C([1-9][0-9]*)\Z")


def control_parent(control_id: str) -> str | None:
    m = CONTROL_ID_RE.match(control_id)
    return m.group(1) if m else None


def _a(noun: str) -> str:
    """``noun`` after its indefinite article."""
    return f"{'an' if noun[0] in 'AEIOUaeiou' else 'a'} {noun}"


def _checked(code: str, test, message: str, default=MISSING):
    """A record field with the check ``validate_register`` makes of its
    value: ``code`` where ``test(value)`` is false, with ``message``
    formatted with the entity's ``id``, the ``value`` and the ``field``."""
    return field(default=default, metadata={"check": (code, test, message)})


def _range(what: str, low: int, high: int) -> tuple:
    """The P021 check of a number from ``low`` to ``high``."""
    return "P021", lambda value: low <= value <= high, f"{what} must be {low}..{high}, got {{value}}"


def _date(message: str, default=MISSING):
    """A date field, P031 unless it is a real day written ``YYYY-MM-DD`` or,
    where it defaults to "", empty.  The date must read back as itself, so
    the rule is the same on every supported Python: from 3.11
    ``date.fromisoformat`` also reads ``20200401`` and ``2020-W14-3``."""
    read = datetime.date.fromisoformat

    def test(value: str) -> bool:
        try:
            return (not value and default == "") or read(value).isoformat() == value
        except ValueError:
            return False
    return _checked("P031", test, message, default)


def _floor(phase: Phase, what: str, gated=None, default=None):
    """A field whose value ``gated``, or without one any value but None, is
    allowed only from ``phase`` on; P023 names it ``what``."""
    return field(default=default, metadata={"floor": (phase, what, gated)})


_SCORE = _range("hierarchy score {field}", 1, 5)


@record
class ProjectMeta:
    """The project's name and the register's version label."""

    name: str
    version: str = ""


@record
class Soi:
    """System of interest: the socio-technical system under design."""

    name: str
    concept_of_operation: str = ""
    deployment_regions: tuple[str, ...] = ()


@record
class SosElement:
    """A partner system in the surrounding system-of-systems."""

    id: str
    name: str
    cooperation_type: CooperationType
    tier: int = _checked("P021", lambda value: not value < 1, "SOS element tier must be >= 1, got {value}", 1)
    processes_personal_data: bool = False
    in_ethical_scope: bool = False
    access_to_enabling_elements: bool = False


@record
class SelectionProfile:
    """Why a stakeholder was selected: motivation, power, knowledge and legitimization."""

    motivation: str = ""
    power: str = ""
    knowledge: str = ""
    legitimization: str = ""


@record
class Stakeholder:
    """A person or group whose values the system affects, directly or indirectly."""

    id: str
    name: str
    kind: StakeholderKind
    description: str = ""
    region: str = ""
    selection_profile: SelectionProfile | None = None


@record
class DataFlow:
    """One flow of a data type from a source to a sink in a context of use."""

    source: str
    sink: str
    data_type: str


@record
class ContextOfUse:
    """A situation the system is used in, with the data it touches."""

    id: str
    name: str
    captured: CaptureStage = _floor(Phase.DEPLOYMENT, "post-deployment contexts are",
                                    CaptureStage.POST_DEPLOYMENT, CaptureStage.PRE_DESIGN)
    data_elements: tuple[str, ...] = ()
    data_flows: tuple[DataFlow, ...] = ()
    data_subjects: tuple[str, ...] = ()
    data_types: tuple[str, ...] = ()
    integrity_expectations: tuple[str, ...] = ()


@record
class Lens:
    """An elicitation lens: one of the three standing ethical lenses, or a
    named culture-specific framework."""

    kind: LensKind
    framework: str = ""

    def _problem(self) -> str | None:
        """What breaks the lens rule, checked on every lens a document
        holds: a cultural lens names its framework, any other names none."""
        if self.kind is LensKind.CULTURAL:
            return None if self.framework.strip() else "cultural lens carries no framework name"
        return "{value.kind.value} lens must not carry a framework name" if self.framework else None

    _rule = ("P030", _problem)


@record
class ElicitationSession:
    """A value elicitation meeting: its stakeholders and the lenses it used."""

    id: str
    date: str = _date("session date {value!r} is not an ISO date", default="")
    participants: tuple[str, ...] = ()
    lenses_used: tuple[Lens, ...] = ()


@record
class ValueStatement:
    """One stakeholder's statement from a session, seen through one lens."""

    id: str
    session: str
    stakeholder: str
    lens: Lens
    text: str = ""
    polarity: Polarity = Polarity.POSITIVE
    named_values: tuple[str, ...] = ()
    extracted_values: tuple[str, ...] = ()


@record
class HierarchyScores:
    """Superiority criteria scored 1..5 each."""

    endurance: int = _checked(*_SCORE)
    depth: int = _checked(*_SCORE)
    indivisibility: int = _checked(*_SCORE)
    bearer_independence: int = _checked(*_SCORE)
    intrinsic_worth: int = _checked(*_SCORE)

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.endurance, self.depth, self.indivisibility,
                self.bearer_independence, self.intrinsic_worth)


@record
class CoreValue:
    """A value the project commits to, with its human-set priority rank."""

    id: int
    name: str
    priority_rank: int
    aliases: tuple[str, ...] = ()
    intrinsic: bool = True
    hierarchy_scores: HierarchyScores | None = None
    supporting_statements: tuple[str, ...] = ()


@record
class ValueQuality:
    """A quality that supports or undermines one core value."""

    id: str
    core_value: int
    name: str
    direction: QualityDirection = QualityDirection.SUPPORTS
    source: QualitySource = _floor(Phase.DEPLOYMENT, "post-deployment qualities are",
                                   QualitySource.POST_DEPLOYMENT, QualitySource.STAKEHOLDER)


@record
class Threshold:
    """A measurable acceptance level for an EVR: metric, comparator and level."""

    metric: str
    comparator: str = _checked("P020", THRESHOLD_COMPARATORS.__contains__,
                               f"threshold comparator {{value!r}} is not one of {'/'.join(THRESHOLD_COMPARATORS)}")
    level: str
    rationale: str = ""


@record
class HarmFlags:
    """The kinds of harm an EVR's breach could cause."""

    life: bool = False
    health: bool = False
    legal_breach: bool = False


@record
class ProtectionDemand:
    """The control rigor an EVR demands, 1 to 4, and why."""

    level: int = _checked(*_range("protection demand", 1, 4))
    rationale: str = _checked("P033", str.strip, "protection demand on EVR {id} has no rationale")


@record
class Evr:
    """Ethical value quality requirement."""

    id: str
    quality: str
    text: str
    kind: EvrKind = EvrKind.ORGANIZATIONAL
    threshold: Threshold | None = None
    risk_path: RiskPath = RiskPath.UNCLASSIFIED
    legal_instruments: tuple[str, ...] = ()
    harm_flags: HarmFlags = field(default_factory=HarmFlags)
    harm_likelihood: HarmLikelihood = HarmLikelihood.UNLIKELY
    protection_demand: ProtectionDemand | None = None


@record
class Threat:
    """A way an EVR could fail; only realistic threats need controls."""

    id: str
    evr: str
    description: str = ""
    realistic: bool = True


@record
class Control:
    """A measure against one or more threats, with its form, rigor and status."""

    id: str
    threats: tuple[str, ...] = _checked("P011", bool, "control {id} mitigates no threats")
    form: ControlForm
    description: str = ""
    rigor: int = _checked(*_range("control rigor", 1, 4), 1)
    status: ControlStatus = ControlStatus.PROPOSED
    implementing_disposition: str | None = None


@record
class ValueDisposition:
    """A system component that implements one or more controls."""

    id: str
    soi_component: str
    implements: tuple[str, ...] = _checked("P026", bool, "disposition {id} implements no controls")
    description: str = ""


@record
class FunctionalRequirement:
    """A functional requirement that design concepts may integrate."""

    id: str
    text: str = ""


@record
class DesignConcept:
    """A design idea and the ethical and functional requirements it integrates."""

    id: str
    name: str
    ethical_refs: tuple[str, ...] = ()
    functional_refs: tuple[str, ...] = ()


@record
class Persona:
    """A narrative stand-in for one stakeholder."""

    id: str
    name: str
    stakeholder: str
    kind: StakeholderKind
    narrative: str = ""


@record
class AttestationSubject:
    """What an attestation signs: a decision kind and, for most kinds, an id."""

    kind: SubjectKind
    ref: str = ""


@record
class Attestation:
    """A named person's signed statement on one subject."""

    id: str
    subject: AttestationSubject
    signatory_name: str = _checked("P031", str.strip, "attestation {id} has an empty signatory name")
    signatory_role: SignatoryRole
    date: str = _date("attestation {id} date {value!r} is not an ISO date")
    statement: str = ""
    consent: bool = False


@record
class ValueMission:
    """The value mission statement, the core values it features and its signatures."""

    text: str
    featured: tuple[int, ...] = ()
    signed_by: tuple[str, ...] = ()


@record
class InvestmentDecision:
    """The go or no-go decision on the project, with its signatures."""

    verdict: Verdict
    rationale: str = ""
    attestations: tuple[str, ...] = ()


@record
class FeedbackEntry:
    """Feedback after deployment, and the statements or qualities it resulted in."""

    id: str
    source: str
    date: str = _date("feedback date {value!r} is not an ISO date", default="")
    text: str = ""
    resulted: tuple[str, ...] = ()
    reprioritization_required: bool = False


MARKET_SOURCE = "market"


def _kind(label: str, floor: Phase | None, id_shape: re.Pattern | None = IDENT_RE,
          numbered: tuple | None = None, node: str | None = None):
    """A document field that holds one id-keyed entity kind, and so declares
    it: the label for messages, the earliest phase at which the collection
    may be non-empty (None for any phase), and the pattern its ids must
    match so that the text format can always re-emit them (None for the
    core values' integers).  The text format reads an id by this pattern.

    A kind whose ids are numbered under a parent also declares ``numbered``:
    the noun and id form its messages use, the parent's kind, and the code
    and message of the check that the id prefix names the chain parent in
    :data:`REFERENCES` (None for none).  Its numbers run 1..n under each id
    prefix.  A kind the trace graph holds declares ``node``, the field whose
    first line names its node."""
    return field(default=(), metadata={"kind": (label, floor, id_shape), "numbered": numbered,
                                       "node": node})


@record
class RegisterDocument:
    """One project's full value register."""

    project: ProjectMeta
    phase: Phase = Phase.CONCEPT
    soi: Soi = field(default_factory=lambda: Soi(name=""))
    sos_elements: tuple[SosElement, ...] = _kind("sos element", None)
    stakeholders: tuple[Stakeholder, ...] = _kind("stakeholder", None)
    contexts: tuple[ContextOfUse, ...] = _kind("context", None)
    sessions: tuple[ElicitationSession, ...] = _kind("session", Phase.EXPLORATION)
    statements: tuple[ValueStatement, ...] = _kind("statement", Phase.EXPLORATION)
    core_values: tuple[CoreValue, ...] = _kind("core value", Phase.EXPLORATION, None, node="name")
    qualities: tuple[ValueQuality, ...] = _kind("quality", Phase.EXPLORATION, QUALITY_ID_RE, (
        "quality", "N.M", "core_values",
        ("P013", "quality id prefix {prefix} does not match parent core value {parent}")), node="name")
    evrs: tuple[Evr, ...] = _kind("evr", Phase.EXPLORATION, EVR_ID_RE, (
        "EVR", "N.M.K", "qualities", ("P014", "EVR id prefix does not match parent quality")), node="text")
    threats: tuple[Threat, ...] = _kind("threat", Phase.DESIGN, THREAT_ID_RE, (
        "threat", "N.M.K-Tj", "evrs", ("P015", "threat id prefix does not match its EVR")), node="description")
    controls: tuple[Control, ...] = _kind("control", Phase.DESIGN, CONTROL_ID_RE, (
        "control", "N.M.K-Cj", "evrs", None), node="description")
    dispositions: tuple[ValueDisposition, ...] = _kind("disposition", Phase.DESIGN, node="description")
    functional_requirements: tuple[FunctionalRequirement, ...] = _kind(
        "functional requirement", Phase.DESIGN, node="text")
    design_concepts: tuple[DesignConcept, ...] = _kind("design concept", Phase.DESIGN, node="name")
    personas: tuple[Persona, ...] = _kind("persona", Phase.DESIGN)
    attestations: tuple[Attestation, ...] = _kind("attestation", Phase.EXPLORATION)
    mission: ValueMission | None = _floor(Phase.EXPLORATION, "a mission is")
    investment_decision: InvestmentDecision | None = _floor(Phase.EXPLORATION, "an investment decision is")
    feedback: tuple[FeedbackEntry, ...] = _kind("feedback entry", Phase.DESIGN)
    alias_map: dict[str, str] = field(default_factory=dict)

    @cached_property
    def index(self) -> "DocIndex":
        """Lookup tables over this document, built on first use and cached
        outside the dataclass fields, so ``==`` and ``replace`` ignore it."""
        return DocIndex(self)


# The id-keyed collections of a document, in field order, as their fields
# declare them: field name -> (label, phase floor, id shape).  Validation,
# the parser, the index, the trace graph and the diff are driven by it.
ENTITY_KINDS: dict[str, tuple[str, Phase | None, re.Pattern | None]] = {
    f.name: f.metadata["kind"] for f in fields(RegisterDocument) if "kind" in f.metadata}
# The kinds the trace graph holds, in field order: field name -> the field
# whose first line names a node.
GRAPH_KINDS: dict[str, str] = {
    f.name: f.metadata["node"] for f in fields(RegisterDocument) if f.metadata.get("node")}

# Every field that names other entities by id: the source collection (or the
# ``mission`` / ``investment_decision`` singleton), the field, the collections
# its ids may name, the P011 message for an id found in none of them (``{id}``
# the source's id, ``{ref}`` the id), and whether the field is the source's
# chain parent.  Validation, the index and the trace graph follow it;
# attestation subjects and a feedback entry's source (it may be ``market``)
# are checked by hand.
REFERENCES: tuple[tuple[str, str, tuple[str, ...], str, bool], ...] = (
    ("core_values", "supporting_statements", ("statements",), "core value {id} cites unknown statement {ref!r}", False),
    ("qualities", "core_value", ("core_values",), "quality {id} references unknown core value {ref}", True),
    ("evrs", "quality", ("qualities",), "EVR {id} references unknown quality {ref!r}", True),
    ("threats", "evr", ("evrs",), "threat {id} references unknown EVR {ref!r}", True),
    ("controls", "threats", ("threats",), "control {id} references unknown threat {ref!r}", True),
    ("controls", "implementing_disposition", ("dispositions",), "control {id} references unknown disposition {ref!r}", False),
    ("dispositions", "implements", ("controls",), "disposition {id} implements unknown control {ref!r}", True),
    ("sessions", "participants", ("stakeholders",), "session {id} names unknown stakeholder {ref!r}", False),
    ("statements", "session", ("sessions",), "statement {id} references unknown session {ref!r}", False),
    ("statements", "stakeholder", ("stakeholders",), "statement {id} references unknown stakeholder {ref!r}", False),
    ("personas", "stakeholder", ("stakeholders",), "persona {id} references unknown stakeholder {ref!r}", False),
    ("design_concepts", "ethical_refs", ("evrs", "controls"), "design concept {id} references unknown ethical requirement {ref!r}", False),
    ("design_concepts", "functional_refs", ("functional_requirements",), "design concept {id} references unknown functional requirement {ref!r}", False),
    ("mission", "featured", ("core_values",), "mission features unknown core value {ref}", False),
    ("mission", "signed_by", ("attestations",), "mission cites unknown attestation {ref!r}", False),
    ("investment_decision", "attestations", ("attestations",), "investment decision cites unknown attestation {ref!r}", False),
    ("feedback", "resulted", ("statements", "qualities"), "feedback {id} resulted-ref {ref!r} is neither a statement nor a quality", False),
)


def _field_checks(cls: type) -> tuple:
    """The checks ``validate_register`` makes of a ``cls`` value: ``(field,
    None, checks, many)`` for each field that holds records with checks of
    their own (``many``: a tuple of them), first, then ``(field, code, test,
    message)`` for each field with a check, and ``(None, code, problem,
    key)`` for the class's ``_rule``, whose ``problem(value)`` gives the
    message of a breach, else None; ``key(value)`` is the value's fields."""
    held = [(f.name, None, inner, getattr(f.type, "__origin__", None) is tuple) for f in fields(cls)
            for t in (f.type, *getattr(f.type, "__args__", ()))
            if isinstance(t, type) and hasattr(t, "__dataclass_fields__") and (inner := _field_checks(t))]
    return (*held, *[(f.name, *f.metadata["check"]) for f in fields(cls) if "check" in f.metadata],
            *([(None, *cls._rule, attrgetter(*[f.name for f in fields(cls)]))] if "_rule" in vars(cls) else []))


# Derived once from the declarations, for validate_register: the field
# checks of each kind, the numbered kinds, each kind's chain parent, and as
# (kind, field, floor, what, gated value) the phase floors of whole kinds,
# in floor order, then of the document's fields (kind None) and entities'.
_CLASSES = {f.name: f.type.__args__[0] for f in fields(RegisterDocument) if f.name in ENTITY_KINDS}
_FIELD_CHECKS = {kind: checks for kind, cls in _CLASSES.items() if (checks := _field_checks(cls))}
_NUMBERED = {f.name: f.metadata["numbered"] for f in fields(RegisterDocument) if f.metadata.get("numbered")}
_CHAIN_PARENT = {kind: field for kind, field, _, _, parent in REFERENCES if parent}
_FLOORS = [*sorted([(kind, None, floor, f"{kind.replace('_', ' ')} are", None)
                    for kind, (_, floor, _) in ENTITY_KINDS.items() if floor], key=lambda g: PHASE_ORDER[g[2]]),
           *[(kind, f.name, *f.metadata["floor"]) for kind, cls in [(None, RegisterDocument), *_CLASSES.items()]
             for f in fields(cls) if "floor" in f.metadata]]


class RegisterError(ValueError):
    """Base error for register operations."""


class InvalidTransitionError(RegisterError):
    """Raised when advance_phase is asked for a non-successor phase."""


class UnknownEntityError(RegisterError):
    """Raised when an entity id does not exist in a document or graph."""


@record
class Violation:
    """One structural invariant breach.

    ``subject`` is the offending entity's id, or ``"register"`` for
    document-level breaches.  ``kind`` is the entity's kind, the
    :data:`ENTITY_KINDS` field that holds it, or None for a document-level
    breach and an alias.
    """

    code: str
    subject: str
    message: str
    kind: str | None = None


@record
class GateReport:
    """Failed phase transition: the gate conditions that did not hold."""

    target: Phase
    failures: tuple[str, ...]


class DocIndex:
    """Lookup tables over one document, built once per document through
    :attr:`RegisterDocument.index`: for each collection of
    :data:`ENTITY_KINDS` a dict from id to entity under the collection's
    name (``idx.evrs``), the numbered kinds' entities grouped by their
    chain parent in :data:`REFERENCES` (``idx.evrs_by_quality``), and
    ``controls_by_evr``.  It holds no reference to the document, so the
    cached index makes no reference cycle."""

    GROUPINGS = {"qualities": "qualities_by_value", "evrs": "evrs_by_quality",
                 "threats": "threats_by_evr", "controls": "controls_by_threat"}

    def __init__(self, doc: RegisterDocument) -> None:
        for kind in ENTITY_KINDS:
            setattr(self, kind, {entity.id: entity for entity in getattr(doc, kind)})
        self._attestations_by_subject: dict[tuple[SubjectKind, str], list[Attestation]] = {}
        for a in doc.attestations:
            self._attestations_by_subject.setdefault(
                (a.subject.kind, a.subject.ref), []).append(a)

        for kind, field, _, _, parent in REFERENCES:
            if parent and kind in self.GROUPINGS:
                groups: dict = {}
                entities = getattr(doc, kind)
                for entity, refs in zip(entities, map(attrgetter(field), entities)):
                    if refs.__class__ is not tuple:
                        groups.setdefault(refs, []).append(entity)
                        continue
                    for ref in refs:
                        groups.setdefault(ref, []).append(entity)
                setattr(self, self.GROUPINGS[kind], groups)
        self.controls_by_evr: dict[str, list[Control]] = {}
        for c in doc.controls:
            parent = control_parent(c.id)
            if parent is not None:
                self.controls_by_evr.setdefault(parent, []).append(c)

    def evrs_under_value(self, value_id: int) -> list[Evr]:
        out: list[Evr] = []
        for q in self.qualities_by_value.get(value_id, []):
            out.extend(self.evrs_by_quality.get(q.id, []))
        return out

    def attestations_for(self, kind: SubjectKind, ref: str = "") -> list[Attestation]:
        return list(self._attestations_by_subject.get((kind, ref), ()))

    def signed_by_executive(self, attestation_ids) -> bool:
        """Whether an attestation named in ``attestation_ids`` is executive-signed."""
        return any(a is not None and a.signatory_role is SignatoryRole.EXECUTIVE
                   for a in map(self.attestations.get, attestation_ids))


def _breaches(holders: list, checks: tuple) -> list:
    """``(field, code, message, value)`` for each of ``checks`` that one of
    ``holders`` breaks, check by check.  Each check is first tried on its
    field's distinct values at once, so that holders that pass it cost no
    Python loop."""
    found = []
    for name, code, test, message in checks if holders else ():
        if code is None:
            held = filter(None, map(attrgetter(name), holders))
            found += _breaches(list(chain.from_iterable(held) if message else held), test)
        elif name is None:  # a rule, tried once per distinct value
            if any(map(test, dict(zip(map(message, holders), holders)).values())):
                found += [(None, code, test(holder), holder) for holder in holders if test(holder)]
        elif not all(map(test, set(map(attrgetter(name), holders)))):
            found += [(name, code, message, value) for value in map(attrgetter(name), holders)
                      if not test(value)]
    return found


def _numbered(doc: RegisterDocument, kind: str, bad, numbers: dict):
    """Each entity of a numbered ``kind`` whose id has the declared form,
    with the id's prefix.  Reports P012 for the others and the prefix
    check against the chain parent, and records each number under its id
    prefix in ``numbers[kind]``."""
    noun, form, parent_kind, prefix_check = _NUMBERED[kind]
    shape, parent = ENTITY_KINDS[kind][2], attrgetter(_CHAIN_PARENT[kind])
    numeric = ENTITY_KINDS[parent_kind][2] is None  # the parent's ids are numbers
    groups = numbers[kind] = {}
    for entity in getattr(doc, kind):
        match = shape.match(entity.id)
        if match is None:
            bad("P012", entity.id, f"{noun} id {entity.id!r} is not of the form {form}", kind)
            continue
        prefix, number = match.groups()
        groups.setdefault(prefix, []).append(int(number))
        if prefix_check and (int(prefix) if numeric else prefix) != (value := parent(entity)):
            bad(prefix_check[0], entity.id, prefix_check[1].format(prefix=prefix, parent=value), kind)
        yield entity, prefix


def validate_register(doc: RegisterDocument, *,
                      line_breaks: bool = True) -> tuple[Violation, ...]:
    """Check every structural invariant and return all breaches found.

    An empty result means the document is structurally valid: ids unique,
    references resolved, numbering coherent and contiguous, content
    consistent with the lifecycle phase, and all field-level constraints
    satisfied.

    The checks of one field are derived from declarations: each kind's
    ``RegisterDocument`` field (``_kind``), :data:`REFERENCES`, and the
    record fields with a check or a phase floor (``_checked``, ``_date``,
    ``_floor``).  The checks that relate entities are written out below.
    The order of the result is fixed: section by section as below, and
    entity by entity within a section.

    ``line_breaks=False`` leaves out the walk over every string for line
    breaks the text format cannot carry (P037).  It is for a caller that
    knows no string can hold one, as ``dsl.parse_register`` knows of a
    source without a carriage return.
    """
    out: list[Violation] = []

    def bad(code: str, subject: str, message: str, kind: str | None = None) -> None:
        out.append(Violation(code, subject, message, kind))

    # The kinds with a field check that some entity breaks, found a column at
    # a time; only these are walked entity by entity, in the order below.
    faulty = {kind for kind, checks in _FIELD_CHECKS.items() if _breaches(getattr(doc, kind), checks)}

    def check(kind: str, *entities) -> None:
        """Report the field checks that ``entities``, or all of ``kind``,
        break.  A loop over a kind tests ``faulty`` first, to save a call
        per entity."""
        for entity in (entities or getattr(doc, kind)) if kind in faulty else ():
            subject = str(entity.id)
            for name, code, message, value in _breaches([entity], _FIELD_CHECKS[kind]):
                bad(code, subject, message.format(id=subject, value=value, field=name), kind)

    for kind, (label, _, _) in ENTITY_KINDS.items():
        seen: set[str] = set()
        for entity in getattr(doc, kind):
            eid = str(entity.id)
            if eid in seen:
                bad("P010", eid, f"duplicate {label} id {eid!r}", kind)
            seen.add(eid)

    idx = doc.index

    for kind, (label, _, shape) in ENTITY_KINDS.items():
        if shape is IDENT_RE:
            for entity in getattr(doc, kind):
                if not IDENT_RE.match(entity.id):
                    why = "is reserved: it closes a block" if entity.id == "end" else "is not identifier-shaped"
                    bad("P012", entity.id, f"{label} id {entity.id!r} {why}", kind)

    # The trace graph keys its nodes by id alone, so graph kinds share no id:
    # P010 at the later kind.  Sizes first: a document without one pays a union.
    graph_ids = [getattr(idx, kind).keys() if ENTITY_KINDS[kind][2] else {*map(str, getattr(idx, kind))}
                 for kind in GRAPH_KINDS]
    if len(set().union(*graph_ids)) < sum(map(len, graph_ids)):
        owners: dict[str, str] = {}
        for kind in GRAPH_KINDS:
            for entity in getattr(doc, kind):
                eid = str(entity.id)
                if (owner := owners.setdefault(eid, kind)) != kind:
                    label, other = ENTITY_KINDS[kind][0], ENTITY_KINDS[owner][0]
                    bad("P010", eid, f"{label} id {eid!r} is also {_a(other)} id", kind)

    # Core value numbering: ids are 1..n in declaration order, ranks a
    # permutation of 1..n.
    for pos, cv in enumerate(doc.core_values, start=1):
        if cv.id != pos:
            bad("P016", str(cv.id), f"core value ids must run 1..{len(doc.core_values)} in order; found {cv.id} at position {pos}", "core_values")
    ranks = sorted(c.priority_rank for c in doc.core_values)
    if ranks != list(range(1, len(doc.core_values) + 1)):
        bad("P022", "register", "priority ranks do not form a permutation of 1..%d" % len(doc.core_values))
    check("core_values")

    numbers: dict[str, dict] = {}  # per numbered kind: id prefix -> the numbers under it
    # Per numbered kind, the ids of the declared form: references skip the others.
    formed = {kind: {e.id for e, _ in _numbered(doc, kind, bad, numbers)} for kind in ("qualities", "evrs")}
    for e in doc.evrs:
        if "evrs" in faulty:
            check("evrs", e)
        if e.risk_path is RiskPath.HIGH and e.protection_demand is None:
            bad("P032", e.id, f"high-risk EVR {e.id} has no protection demand", "evrs")

    threat_evrs = formed["threats"] = {t.id: evr for t, evr in _numbered(doc, "threats", bad, numbers)}
    formed["controls"] = set()
    for c, own_evr in _numbered(doc, "controls", bad, numbers):
        formed["controls"].add(c.id)
        for tid in c.threats:
            if tid in idx.threats and threat_evrs.get(tid) != own_evr:
                bad("P024", c.id, f"control {c.id} references threat {tid} outside its EVR {own_evr}", "controls")
        if "controls" in faulty:
            check("controls", c)
        if c.status is ControlStatus.IMPLEMENTED and c.implementing_disposition is None:
            bad("P025", c.id, f"implemented control {c.id} names no implementing disposition", "controls")

    # References.  A numbered entity whose id is malformed has its P012 only.
    for kind, field, targets, message, _ in REFERENCES:
        known, *others = [getattr(idx, target) for target in targets]
        held = getattr(doc, kind)
        single = kind not in ENTITY_KINDS
        ids = formed.get(kind)
        entities = ((held,) if held is not None else ()) if single else held
        for entity, refs in zip(entities, map(attrgetter(field), entities)):
            if refs.__class__ is not tuple:
                if refs is None or refs in known:
                    continue
                refs = (refs,)
            for ref in refs:
                if (ref not in known and not any(ref in other for other in others)
                        and (ids is None or entity.id in ids)):
                    subject = "register" if single else str(entity.id)
                    bad("P011", subject, message.format(id=subject, ref=ref), None if single else kind)

    # Numbering runs 1..n under each id prefix.
    for kind, groups in numbers.items():
        noun, _, parent_kind, _ = _NUMBERED[kind]
        under = (_NUMBERED.get(parent_kind) or ENTITY_KINDS[parent_kind])[0]
        for prefix, indices in groups.items():
            if sorted(indices) != list(range(1, len(indices) + 1)):
                bad("P016", prefix, f"{noun} numbering under {under} {prefix} is not contiguous from 1", parent_kind)

    check("dispositions")
    check("sos_elements")

    for c in doc.contexts:
        declared = set(c.data_elements)
        types = set(c.data_types)
        for flow in c.data_flows:
            if flow.source not in declared:
                bad("P017", c.id, f"data flow source {flow.source!r} is not a declared element", "contexts")
            if flow.sink not in declared:
                bad("P017", c.id, f"data flow sink {flow.sink!r} is not a declared element", "contexts")
            if flow.data_type not in types:
                bad("P017", c.id, f"data flow type {flow.data_type!r} is not a declared data type", "contexts")

    check("sessions")
    check("statements")

    for p in doc.personas:
        holder = idx.stakeholders.get(p.stakeholder)
        if holder is not None and p.kind is not holder.kind:
            bad("P035", p.id, f"persona {p.id} kind {p.kind.value} differs from its stakeholder's kind {holder.kind.value}", "personas")

    for a in doc.attestations:
        if "attestations" in faulty:
            check("attestations", a)
        subj = a.subject
        if subj.kind is SubjectKind.PRIORITY_DECISION:
            canonical = subj.ref.isdigit() and str(int(subj.ref)) == subj.ref
            if not canonical or int(subj.ref) not in idx.core_values:
                bad("P011", a.id, f"attestation {a.id} endorses unknown core value {subj.ref!r}", "attestations")
        elif subj.kind is SubjectKind.RISK_ACCEPTANCE:
            if subj.ref not in idx.controls:
                bad("P011", a.id, f"attestation {a.id} accepts risk on unknown control {subj.ref!r}", "attestations")
        elif subj.kind is SubjectKind.MISSION:
            if doc.mission is None:
                bad("P011", a.id, f"attestation {a.id} endorses a mission that is not recorded", "attestations")
        elif subj.kind is SubjectKind.INVESTMENT_DECISION:
            if doc.investment_decision is None:
                bad("P011", a.id, f"attestation {a.id} endorses an investment decision that is not recorded", "attestations")
        elif subj.kind is SubjectKind.RULE:
            if not subj.ref.strip():
                bad("P011", a.id, f"attestation {a.id} names no rule id", "attestations")

    if doc.mission is not None:
        by_rank = {c.priority_rank: c.id for c in doc.core_values}
        for i, ref in enumerate(doc.mission.featured, start=1):
            if ref in idx.core_values and by_rank.get(i) != ref:
                bad("P027", "register", "mission featured values are not a prefix of the priority order")

    dec = doc.investment_decision
    if dec is not None and dec.verdict is Verdict.NO_GO:
        if not dec.rationale.strip():
            bad("P028", "register", "no-go decision has no rationale")
        if not idx.signed_by_executive(dec.attestations):
            bad("P028", "register", "no-go decision carries no executive attestation")

    for fb in doc.feedback:
        if fb.source != MARKET_SOURCE and fb.source not in idx.stakeholders:
            bad("P011", fb.id, f"feedback {fb.id} source {fb.source!r} is neither a stakeholder nor 'market'", "feedback")
        if "feedback" in faulty:
            check("feedback", fb)

    # Alias map: direct mappings only, no chains and no self-loops.
    for name, target in doc.alias_map.items():
        if name == target:
            bad("P019", name, f"alias {name!r} maps to itself")
        elif target in doc.alias_map:
            bad("P019", name, f"alias {name!r} maps to {target!r}, which is itself an alias")

    # Phase gating of content: whole kinds, then the fields with a floor.
    for kind, name, floor, what, gated in _FLOORS:
        if not phase_at_least(doc.phase, floor):
            for holder in getattr(doc, kind) if kind else (doc,):
                value = getattr(holder, name) if name else holder
                if value is gated if gated is not None else value is not None:
                    bad("P023", str(holder.id) if kind else "register",
                        f"{what} not allowed in phase {doc.phase.value}", kind)

    if phase_at_least(doc.phase, Phase.EXPLORATION) and not doc.soi.concept_of_operation.strip():
        bad("P029", "register", f"concept of operation must be recorded before phase {doc.phase.value}")

    # Which strings must keep to one line is declared by the text format.
    if line_breaks:
        from .dsl import _check_line_breaks
        _check_line_breaks(doc, bad)

    return tuple(out)


def new_empty_register(project_name: str) -> RegisterDocument:
    """Create a fresh register in the concept phase with empty collections."""
    if not project_name.strip():
        raise RegisterError("project name must not be empty")
    return RegisterDocument(
        project=ProjectMeta(name=project_name),
        phase=Phase.CONCEPT,
        soi=Soi(name=project_name),
    )


def resolve_alias(doc: RegisterDocument, name: str) -> str:
    """Canonical value name for ``name``; unmapped names pass through.

    Because alias chains are rejected structurally, resolution is
    idempotent: resolving a resolved name returns it unchanged.
    """
    return doc.alias_map.get(name, name)


_SUCCESSOR = dict(zip(list(Phase), list(Phase)[1:]))


def advance_phase(doc: RegisterDocument, target: Phase) -> RegisterDocument | GateReport:
    """Move the register to the next lifecycle phase if its gate holds.

    Returns the advanced document on success, or a :class:`GateReport`
    naming every gate condition that failed.  Asking for anything but the
    immediate successor raises :class:`InvalidTransitionError`.
    """
    expected = _SUCCESSOR.get(doc.phase)
    if expected is None or target is not expected:
        raise InvalidTransitionError(
            f"cannot advance from {doc.phase.value} to {target.value}; "
            f"expected target {expected.value if expected else 'none'}"
        )

    failures: list[str] = []
    if target is Phase.EXPLORATION:
        if not doc.soi.concept_of_operation.strip():
            failures.append("concept of operation is empty")
    elif target is Phase.DESIGN:
        if not doc.core_values:
            failures.append("no core values defined")
        else:
            ranks = sorted(c.priority_rank for c in doc.core_values)
            if ranks != list(range(1, len(doc.core_values) + 1)):
                failures.append("priority ranks are not fully assigned")
        if not doc.evrs:
            failures.append("no EVRs defined")
        has_no_go = (
            doc.investment_decision is not None
            and doc.investment_decision.verdict is Verdict.NO_GO
        )
        if doc.mission is None and not has_no_go:
            failures.append("neither a value mission nor a no-go decision is recorded")
    elif target is Phase.DEPLOYMENT:
        idx = doc.index
        for evr in doc.evrs:
            if evr.risk_path is not RiskPath.HIGH:
                continue
            for threat in idx.threats_by_evr.get(evr.id, []):
                if threat.realistic and not idx.controls_by_threat.get(threat.id):
                    failures.append(
                        f"high-risk EVR {evr.id} has uncontrolled realistic threat {threat.id}"
                    )

    if failures:
        return GateReport(target=target, failures=tuple(failures))

    advanced = replace(doc, phase=target)
    leftover = validate_register(advanced)
    if leftover:
        # Gates only ever relax content restrictions, so this indicates the
        # input document was already invalid.
        raise RegisterError(
            "document is structurally invalid after transition: "
            + "; ".join(v.message for v in leftover[:3])
        )
    return advanced
