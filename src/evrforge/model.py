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
QUALITY_ID_RE = re.compile(r"^([1-9][0-9]*)\.([1-9][0-9]*)\Z")
EVR_ID_RE = re.compile(r"^([1-9][0-9]*)\.([1-9][0-9]*)\.([1-9][0-9]*)\Z")
THREAT_ID_RE = re.compile(r"^([1-9][0-9]*\.[1-9][0-9]*\.[1-9][0-9]*)-T([1-9][0-9]*)\Z")
CONTROL_ID_RE = re.compile(r"^([1-9][0-9]*\.[1-9][0-9]*\.[1-9][0-9]*)-C([1-9][0-9]*)\Z")


def control_parent(control_id: str) -> str | None:
    m = CONTROL_ID_RE.match(control_id)
    return m.group(1) if m else None


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
    tier: int = 1
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
    captured: CaptureStage = CaptureStage.PRE_DESIGN
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


@record
class ElicitationSession:
    """A value elicitation meeting: its stakeholders and the lenses it used."""

    id: str
    date: str = ""
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

    endurance: int
    depth: int
    indivisibility: int
    bearer_independence: int
    intrinsic_worth: int

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
    source: QualitySource = QualitySource.STAKEHOLDER


@record
class Threshold:
    """A measurable acceptance level for an EVR: metric, comparator and level."""

    metric: str
    comparator: str
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

    level: int
    rationale: str


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
    threats: tuple[str, ...]
    form: ControlForm
    description: str = ""
    rigor: int = 1
    status: ControlStatus = ControlStatus.PROPOSED
    implementing_disposition: str | None = None


@record
class ValueDisposition:
    """A system component that implements one or more controls."""

    id: str
    soi_component: str
    implements: tuple[str, ...]
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
    signatory_name: str
    signatory_role: SignatoryRole
    date: str
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
    date: str = ""
    text: str = ""
    resulted: tuple[str, ...] = ()
    reprioritization_required: bool = False


MARKET_SOURCE = "market"


def _kind(label: str, floor: Phase | None, id_shape: re.Pattern | None = IDENT_RE):
    """A document field that holds one id-keyed entity kind, and so declares
    it: the label for messages, the earliest phase at which the collection
    may be non-empty (None for any phase), and the pattern its ids must
    match so that the text format can always re-emit them (None for the
    core values' integers)."""
    return field(default=(), metadata={"kind": (label, floor, id_shape)})


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
    core_values: tuple[CoreValue, ...] = _kind("core value", Phase.EXPLORATION, None)
    qualities: tuple[ValueQuality, ...] = _kind("quality", Phase.EXPLORATION, QUALITY_ID_RE)
    evrs: tuple[Evr, ...] = _kind("evr", Phase.EXPLORATION, EVR_ID_RE)
    threats: tuple[Threat, ...] = _kind("threat", Phase.DESIGN, THREAT_ID_RE)
    controls: tuple[Control, ...] = _kind("control", Phase.DESIGN, CONTROL_ID_RE)
    dispositions: tuple[ValueDisposition, ...] = _kind("disposition", Phase.DESIGN)
    functional_requirements: tuple[FunctionalRequirement, ...] = _kind("functional requirement", Phase.DESIGN)
    design_concepts: tuple[DesignConcept, ...] = _kind("design concept", Phase.DESIGN)
    personas: tuple[Persona, ...] = _kind("persona", Phase.DESIGN)
    attestations: tuple[Attestation, ...] = _kind("attestation", Phase.EXPLORATION)
    mission: ValueMission | None = None
    investment_decision: InvestmentDecision | None = None
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

# Every field that names other entities by id: the source collection (or the
# ``mission`` / ``investment_decision`` singleton), the field, the collections
# its ids may name, the P011 message for an id found in none of them (``{id}``
# the source's id, ``{ref}`` the id), and whether the field is the source's
# chain parent.  Validation, the index and the trace graph follow it;
# attestation subjects, a feedback entry's source (it may be ``market``) and a
# control without threats are checked by hand.
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
    document-level breaches.
    """

    code: str
    subject: str
    message: str


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


def _well_formed_date(value: str) -> bool:
    try:
        datetime.date.fromisoformat(value)
    except ValueError:
        return False
    return True


def validate_register(doc: RegisterDocument, *,
                      line_breaks: bool = True) -> tuple[Violation, ...]:
    """Check every structural invariant and return all breaches found.

    An empty result means the document is structurally valid: ids unique,
    references resolved, numbering coherent and contiguous, content
    consistent with the lifecycle phase, and all field-level constraints
    satisfied.

    ``line_breaks=False`` leaves out the walk over every string for line
    breaks the text format cannot carry (P037).  It is for a caller that
    knows no string can hold one, as ``dsl.parse_register`` knows of a
    source without a carriage return.
    """
    out: list[Violation] = []

    def bad(code: str, subject: str, message: str) -> None:
        out.append(Violation(code=code, subject=subject, message=message))

    def contiguous(what: str, numbers: dict) -> None:
        """P016 for each parent whose children are not numbered 1..n."""
        for parent, indices in numbers.items():
            if sorted(indices) != list(range(1, len(indices) + 1)):
                bad("P016", str(parent), f"{what} {parent} is not contiguous from 1")

    for kind, (label, _, _) in ENTITY_KINDS.items():
        seen: set[str] = set()
        for entity in getattr(doc, kind):
            eid = str(entity.id)
            if eid in seen:
                bad("P010", eid, f"duplicate {label} id {eid!r}")
            seen.add(eid)

    idx = doc.index

    # Id shape.  Numbered kinds are checked against their patterns below.
    for kind, (label, _, shape) in ENTITY_KINDS.items():
        if shape is IDENT_RE:
            for entity in getattr(doc, kind):
                if entity.id == "end":
                    bad("P012", entity.id, f"{label} id 'end' is reserved: it closes a block")
                elif not IDENT_RE.match(entity.id):
                    bad("P012", entity.id, f"{label} id {entity.id!r} is not identifier-shaped")

    evr_and_control_ids = set(idx.evrs) | set(idx.controls)
    for f in doc.functional_requirements:
        if f.id in evr_and_control_ids:
            bad("P010", f.id, "functional requirement id collides with an ethical requirement id")

    # Core value numbering: ids are 1..n in declaration order, ranks a
    # permutation of 1..n.
    for pos, cv in enumerate(doc.core_values, start=1):
        if cv.id != pos:
            bad("P016", str(cv.id), f"core value ids must run 1..{len(doc.core_values)} in order; found {cv.id} at position {pos}")
    ranks = sorted(c.priority_rank for c in doc.core_values)
    if ranks != list(range(1, len(doc.core_values) + 1)):
        bad("P022", "register", "priority ranks do not form a permutation of 1..%d" % len(doc.core_values))

    for cv in doc.core_values:
        if cv.hierarchy_scores is not None:
            for crit, score in vars(cv.hierarchy_scores).items():  # no asdict deep copy
                if not 1 <= score <= 5:
                    bad("P021", str(cv.id), f"hierarchy score {crit} must be 1..5, got {score}")

    # Dotted-decimal coherence: an id's prefix names its parent.
    for q in doc.qualities:
        m = QUALITY_ID_RE.match(q.id)
        if m is None:
            bad("P012", q.id, f"quality id {q.id!r} is not of the form N.M")
        elif int(m.group(1)) != q.core_value:
            bad("P013", q.id, f"quality id prefix {m.group(1)} does not match parent core value {q.core_value}")

    for e in doc.evrs:
        if not EVR_ID_RE.match(e.id):
            bad("P012", e.id, f"EVR id {e.id!r} is not of the form N.M.K")
        elif e.id.rsplit(".", 1)[0] != e.quality:
            bad("P014", e.id, "EVR id prefix does not match parent quality")

    for e in doc.evrs:
        if e.threshold is not None and e.threshold.comparator not in THRESHOLD_COMPARATORS:
            bad("P020", e.id, f"threshold comparator {e.threshold.comparator!r} is not one of {'/'.join(THRESHOLD_COMPARATORS)}")
        if e.protection_demand is not None:
            if not 1 <= e.protection_demand.level <= 4:
                bad("P021", e.id, f"protection demand must be 1..4, got {e.protection_demand.level}")
            if not e.protection_demand.rationale.strip():
                bad("P033", e.id, f"protection demand on EVR {e.id} has no rationale")
        if e.risk_path is RiskPath.HIGH and e.protection_demand is None:
            bad("P032", e.id, f"high-risk EVR {e.id} has no protection demand")

    js: dict[str, list[int]] = {}
    threat_evrs: dict[str, str] = {}
    for t in doc.threats:
        m = THREAT_ID_RE.match(t.id)
        if m is None:
            bad("P012", t.id, f"threat id {t.id!r} is not of the form N.M.K-Tj")
            continue
        js.setdefault(m.group(1), []).append(int(m.group(2)))
        threat_evrs[t.id] = m.group(1)
        if m.group(1) != t.evr:
            bad("P015", t.id, "threat id prefix does not match its EVR")

    cs: dict[str, list[int]] = {}
    for c in doc.controls:
        m = CONTROL_ID_RE.match(c.id)
        if m is None:
            bad("P012", c.id, f"control id {c.id!r} is not of the form N.M.K-Cj")
            continue
        own_evr = m.group(1)
        cs.setdefault(own_evr, []).append(int(m.group(2)))
        if not c.threats:
            bad("P011", c.id, f"control {c.id} mitigates no threats")
        for tid in c.threats:
            if tid in idx.threats and threat_evrs.get(tid) != own_evr:
                bad("P024", c.id, f"control {c.id} references threat {tid} outside its EVR {own_evr}")
        if not 1 <= c.rigor <= 4:
            bad("P021", c.id, f"control rigor must be 1..4, got {c.rigor}")
        if c.status is ControlStatus.IMPLEMENTED and c.implementing_disposition is None:
            bad("P025", c.id, f"implemented control {c.id} names no implementing disposition")

    # References.  A numbered entity whose id is malformed has its P012 only.
    numbered = {kind: shape for kind, (_, _, shape) in ENTITY_KINDS.items()
                if shape not in (IDENT_RE, None)}
    for kind, field, targets, message, _ in REFERENCES:
        known, *others = [getattr(idx, target) for target in targets]
        held = getattr(doc, kind)
        single = kind not in ENTITY_KINDS
        pattern = numbered.get(kind)
        entities = ((held,) if held is not None else ()) if single else held
        for entity, refs in zip(entities, map(attrgetter(field), entities)):
            if refs.__class__ is not tuple:
                if refs is None or refs in known:
                    continue
                refs = (refs,)
            for ref in refs:
                if (ref not in known and not any(ref in other for other in others)
                        and (pattern is None or pattern.match(entity.id))):
                    subject = "register" if single else str(entity.id)
                    bad("P011", subject, message.format(id=subject, ref=ref))

    # Numbering runs 1..n under each parent.
    contiguous("quality numbering under core value", {
        value_id: [int(q.id.split(".")[1]) for q in quals if QUALITY_ID_RE.match(q.id)]
        for value_id, quals in idx.qualities_by_value.items()})
    contiguous("EVR numbering under quality", {
        quality_id: [int(e.id.split(".")[2]) for e in evrs if EVR_ID_RE.match(e.id)]
        for quality_id, evrs in idx.evrs_by_quality.items()})
    contiguous("threat numbering under EVR", js)
    contiguous("control numbering under EVR", cs)

    for d in doc.dispositions:
        if not d.implements:
            bad("P026", d.id, f"disposition {d.id} implements no controls")

    for s in doc.sos_elements:
        if s.tier < 1:
            bad("P021", s.id, f"SOS element tier must be >= 1, got {s.tier}")

    for c in doc.contexts:
        declared = set(c.data_elements)
        types = set(c.data_types)
        for flow in c.data_flows:
            if flow.source not in declared:
                bad("P017", c.id, f"data flow source {flow.source!r} is not a declared element")
            if flow.sink not in declared:
                bad("P017", c.id, f"data flow sink {flow.sink!r} is not a declared element")
            if flow.data_type not in types:
                bad("P017", c.id, f"data flow type {flow.data_type!r} is not a declared data type")

    for session in doc.sessions:
        for lens in session.lenses_used:
            _check_lens(lens, session.id, bad)
        if session.date and not _well_formed_date(session.date):
            bad("P031", session.id, f"session date {session.date!r} is not an ISO date")

    for st in doc.statements:
        _check_lens(st.lens, st.id, bad)

    for p in doc.personas:
        holder = idx.stakeholders.get(p.stakeholder)
        if holder is not None and p.kind is not holder.kind:
            bad("P035", p.id, f"persona {p.id} kind {p.kind.value} differs from its stakeholder's kind {holder.kind.value}")

    for a in doc.attestations:
        if not a.signatory_name.strip():
            bad("P031", a.id, f"attestation {a.id} has an empty signatory name")
        if not _well_formed_date(a.date):
            bad("P031", a.id, f"attestation {a.id} date {a.date!r} is not an ISO date")
        subj = a.subject
        if subj.kind is SubjectKind.PRIORITY_DECISION:
            canonical = subj.ref.isdigit() and str(int(subj.ref)) == subj.ref
            if not canonical or int(subj.ref) not in idx.core_values:
                bad("P011", a.id, f"attestation {a.id} endorses unknown core value {subj.ref!r}")
        elif subj.kind is SubjectKind.RISK_ACCEPTANCE:
            if subj.ref not in idx.controls:
                bad("P011", a.id, f"attestation {a.id} accepts risk on unknown control {subj.ref!r}")
        elif subj.kind is SubjectKind.MISSION:
            if doc.mission is None:
                bad("P011", a.id, f"attestation {a.id} endorses a mission that is not recorded")
        elif subj.kind is SubjectKind.INVESTMENT_DECISION:
            if doc.investment_decision is None:
                bad("P011", a.id, f"attestation {a.id} endorses an investment decision that is not recorded")
        elif subj.kind is SubjectKind.RULE:
            if not subj.ref.strip():
                bad("P011", a.id, f"attestation {a.id} names no rule id")

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
            bad("P011", fb.id, f"feedback {fb.id} source {fb.source!r} is neither a stakeholder nor 'market'")
        if fb.date and not _well_formed_date(fb.date):
            bad("P031", fb.id, f"feedback date {fb.date!r} is not an ISO date")

    # Alias map: direct mappings only, no chains and no self-loops.
    for name, target in doc.alias_map.items():
        if name == target:
            bad("P019", name, f"alias {name!r} maps to itself")
        elif target in doc.alias_map:
            bad("P019", name, f"alias {name!r} maps to {target!r}, which is itself an alias")

    # Phase gating of content.
    gated = [(kind, floor) for kind, (_, floor, _) in ENTITY_KINDS.items() if floor is not None]
    for kind, floor in sorted(gated, key=lambda gate: PHASE_ORDER[gate[1]]):
        if phase_at_least(doc.phase, floor):
            continue
        for entity in getattr(doc, kind):
            bad("P023", str(entity.id),
                f"{kind.replace('_', ' ')} are not allowed in phase {doc.phase.value}")
    if not phase_at_least(doc.phase, Phase.EXPLORATION):
        if doc.mission is not None:
            bad("P023", "register", f"a mission is not allowed in phase {doc.phase.value}")
        if doc.investment_decision is not None:
            bad("P023", "register", f"an investment decision is not allowed in phase {doc.phase.value}")
    if not phase_at_least(doc.phase, Phase.DEPLOYMENT):
        for c in doc.contexts:
            if c.captured is CaptureStage.POST_DEPLOYMENT:
                bad("P023", c.id, f"post-deployment contexts are not allowed in phase {doc.phase.value}")
        for q in doc.qualities:
            if q.source is QualitySource.POST_DEPLOYMENT:
                bad("P023", q.id, f"post-deployment qualities are not allowed in phase {doc.phase.value}")

    if phase_at_least(doc.phase, Phase.EXPLORATION) and not doc.soi.concept_of_operation.strip():
        bad("P029", "register", f"concept of operation must be recorded before phase {doc.phase.value}")

    # Which strings must keep to one line is declared by the text format.
    if line_breaks:
        from .dsl import _check_line_breaks
        _check_line_breaks(doc, bad)

    return tuple(out)


def _check_lens(lens: Lens, subject: str, bad) -> None:
    if lens.kind is LensKind.CULTURAL and not lens.framework.strip():
        bad("P030", subject, "cultural lens carries no framework name")
    if lens.kind is not LensKind.CULTURAL and lens.framework:
        bad("P030", subject, f"{lens.kind.value} lens must not carry a framework name")


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
