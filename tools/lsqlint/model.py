"""Declaration-level C++ parser: token stream -> per-file facts.

The output of `extract()` is a plain JSON-serializable dict ("facts")
holding everything any rule needs from one file: classes with their data members / declared methods / virtual-method
sets, function definitions with per-body summaries (outgoing calls,
hot-path purity events), and the annotations parsed from comments.

Facts are pure per-file data — cross-file reasoning (hot-path
propagation) happens in the rules, over the merged FactsDB.

The parser is heuristic (no preprocessing, no template
instantiation), tuned to this repository's style, and must never
crash on valid input; when it cannot classify a construct it errs on
the side of recording nothing.
"""

from __future__ import annotations

import re

from . import lexer

# Annotation grammar (docs/STATIC_ANALYSIS.md):
#   // lsqlint: allow(rule[, rule...]) [-- reason]
#   // lsqlint: hot [-- reason]
#   // lsqlint: phase(name) [-- reason]
_ANNOT_RE = re.compile(
    r"lsqlint\s*:\s*(allow|hot|phase)\b"
    r"\s*(?:\(([^)]*)\))?")

# Statement keywords that look like calls but are not.
_NOT_CALLS = frozenset((
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "catch", "new", "delete", "throw", "case", "do", "else",
    "static_assert", "decltype", "noexcept", "alignas", "assert",
))

# Macros whose argument lists are cold failure/diagnostic paths: code
# inside them is exempt from hot-path purity and call propagation
# (LSQ_ASSERT and friends format messages and call debugDump *only
# when the invariant already failed*). LSQ_TRACE_HOOK arguments run
# only when a tracer is attached.
_COLD_MACROS = frozenset((
    "LSQ_PANIC", "LSQ_FATAL", "LSQ_WARN", "LSQ_ASSERT", "LSQ_DCHECK",
    "LSQ_TRACE_HOOK",
))

_DECL_SKIP_STARTS = frozenset((
    "using", "typedef", "friend", "static_assert", "template",
    "public", "private", "protected",
))

_TYPE_QUALIFIERS = frozenset((
    "const", "constexpr", "mutable", "volatile", "inline", "static",
    "virtual", "explicit", "typename", "struct", "class", "enum",
    "unsigned", "signed", "long", "short",
))

# The narrow integer types of the narrowing-cast rule (PR 1).
_NARROW_TYPES = frozenset((
    "int", "short", "unsigned",
    "int8_t", "int16_t", "int32_t",
    "uint8_t", "uint16_t", "uint32_t",
))

# Identifier markers of 64-bit cycle/sequence arithmetic.
_WIDE_MARKER_RE = re.compile(
    r"\b(?:now_?|Cycle|cycle|SeqNum|seq\b|executeCycle|commitCycle|"
    r"searchDoneCycle|readyCycle)")

_MUTEX_IDENTS = frozenset((
    "mutex", "timed_mutex", "recursive_mutex", "shared_mutex",
    "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
    "condition_variable", "condition_variable_any",
))

_IO_CALL_IDENTS = frozenset((
    "printf", "fprintf", "vfprintf", "snprintf_file", "puts", "fputs",
    "fwrite", "fread", "fopen", "fclose", "fflush", "fgets", "fputc",
    "getline",
))

_STATDUMP_CALL_IDENTS = frozenset((
    "printf", "fprintf", "vfprintf", "puts", "fputs",
))

_SYSCALL_IDENTS = frozenset((
    "fork", "waitpid", "write", "rename", "fsync",
))

_THREAD_IDENTS = frozenset(("thread", "jthread"))

# Host-profiler timing primitives (src/metrics/hostprof.hh). Legal on
# the hot path only at `// lsqlint: phase(<name>)` annotated lines —
# the per-cycle clock reads of the profiled Core::tickStages and the
# LSQ lap timers, which the sampling mask keeps off the common case.
_TIMER_IDENTS = frozenset((
    "hostNowNs", "ScopedHostPhase", "noteSampledCycle",
))


def _parse_annotations(comments):
    allows = {}       # line -> [rules]
    hot_lines = []    # comment end lines carrying `hot`
    phase_lines = {}  # line -> phase name (host-profiler boundaries)
    for c in comments:
        for m in _ANNOT_RE.finditer(c.text):
            kind, arg = m.group(1), (m.group(2) or "").strip()
            if kind == "allow":
                rules = [r.strip() for r in arg.split(",") if r.strip()]
                # Covers the comment's own lines plus the next line,
                # so the annotation works both trailing and above.
                for ln in range(c.line, c.end_line + 2):
                    allows.setdefault(ln, []).extend(rules)
            elif kind == "hot":
                hot_lines.append(c.end_line)
            elif kind == "phase" and arg:
                # Same trailing-or-above coverage as allow().
                for ln in range(c.line, c.end_line + 2):
                    phase_lines[ln] = arg
    return allows, hot_lines, phase_lines


class _Cursor:
    __slots__ = ("toks", "i", "n")

    def __init__(self, toks, i=0):
        self.toks = toks
        self.i = i
        self.n = len(toks)

    def peek(self, k=0):
        j = self.i + k
        return self.toks[j] if j < self.n else None

    def next(self):
        t = self.toks[self.i] if self.i < self.n else None
        self.i += 1
        return t

    def at_end(self):
        return self.i >= self.n


def _match_forward(toks, i, open_t, close_t):
    """Index just past the matcher of toks[i] (which must be open_t)."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == "p":
            if t.text == open_t:
                depth += 1
            elif t.text == close_t:
                depth -= 1
                if depth == 0:
                    return i + 1
        i += 1
    return n


def _skip_template_args(toks, i):
    """toks[i] is '<' opening template args; return index past '>'.
    Heuristic: give up (return i+1) if no balanced close within the
    statement — callers treat that as a comparison operator."""
    depth = 0
    n = len(toks)
    j = i
    while j < n:
        t = toks[j]
        if t.kind == "p":
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    return j + 1
            elif t.text == ">>":
                depth -= 2
                if depth <= 0:
                    return j + 1
            elif t.text in (";", "{", "}"):
                return i + 1  # not template args after all
        j += 1
    return i + 1


def _collect_statement(toks, i):
    """Collect one statement/declaration starting at i. Returns
    (tokens_of_head, index_of_terminator, terminator) where terminator
    is ';' or '{' (a body follows) or None at EOF. Template argument
    lists and parenthesised groups are kept inside the head."""
    head = []
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == "p":
            if t.text == ";":
                return head, i, ";"
            if t.text == "{":
                return head, i, "{"
            if t.text == "}":
                # Unbalanced close: caller's scope ended mid-statement.
                return head, i, "}"
            if t.text == "(":
                j = _match_forward(toks, i, "(", ")")
                head.extend(toks[i:j])
                i = j
                continue
            if t.text == "[":
                j = _match_forward(toks, i, "[", "]")
                head.extend(toks[i:j])
                i = j
                continue
            if t.text == "<" and head and head[-1].kind == "id":
                j = _skip_template_args(toks, i)
                head.extend(toks[i:j])
                i = j
                continue
        head.append(t)
        i += 1
    return head, n, None


def _head_has_toplevel_paren(head):
    """True if the declaration head contains a parenthesised group
    outside template args — i.e. it declares/defines a function."""
    depth_angle = 0
    prev = None
    for t in head:
        if t.kind == "p":
            if t.text == "<" and prev is not None and prev.kind == "id":
                depth_angle += 1
            elif t.text in (">", ">>") and depth_angle > 0:
                depth_angle -= 2 if t.text == ">>" else 1
                depth_angle = max(depth_angle, 0)
            elif t.text == "(" and depth_angle == 0:
                return True
        prev = t
    return False


def _name_before_paren(head):
    """(name, line, qualifier) of the function declared by head, where
    qualifier is the 'A::B' prefix if the name is qualified."""
    depth_angle = 0
    prev = None
    first_paren = None
    for idx, t in enumerate(head):
        if t.kind == "p":
            if t.text == "<" and prev is not None and prev.kind == "id":
                depth_angle += 1
            elif t.text in (">", ">>") and depth_angle > 0:
                depth_angle -= 2 if t.text == ">>" else 1
                depth_angle = max(depth_angle, 0)
            elif t.text == "(" and depth_angle == 0:
                first_paren = idx
                break
        prev = t
    if first_paren is None or first_paren == 0:
        return None, 0, None
    j = first_paren - 1
    # operator overloads: name is 'operator<symbols>'
    name_tok = head[j]
    if name_tok.kind == "p":
        k = j
        while k >= 0 and not (head[k].kind == "id" and
                              head[k].text == "operator"):
            k -= 1
        if k >= 0:
            sym = "".join(t.text for t in head[k + 1:j + 1])
            return "operator" + sym, head[k].line, _qualifier(head, k)
        return None, 0, None
    if name_tok.kind != "id":
        return None, 0, None
    name = name_tok.text
    # destructor
    if j >= 1 and head[j - 1].kind == "p" and head[j - 1].text == "~":
        return "~" + name, name_tok.line, _qualifier(head, j - 1)
    return name, name_tok.line, _qualifier(head, j)


def _qualifier(head, name_idx):
    """Collect an 'A::B' qualifier chain ending just before
    head[name_idx]."""
    parts = []
    j = name_idx - 1
    while j >= 1 and head[j].kind == "p" and head[j].text == "::":
        q = head[j - 1]
        if q.kind == "id":
            parts.append(q.text)
            j -= 2
            # skip template args of the qualifier (Foo<int>::bar)
        else:
            break
    if not parts:
        return None
    parts.reverse()
    return "::".join(parts)


def _param_types(head):
    """Map param-name -> type-string from the first top-level (...)
    group of a function head."""
    depth_angle = 0
    prev = None
    start = None
    for idx, t in enumerate(head):
        if t.kind == "p":
            if t.text == "<" and prev is not None and prev.kind == "id":
                depth_angle += 1
            elif t.text in (">", ">>") and depth_angle > 0:
                depth_angle -= 2 if t.text == ">>" else 1
                depth_angle = max(depth_angle, 0)
            elif t.text == "(" and depth_angle == 0:
                start = idx
                break
        prev = t
    if start is None:
        return {}
    end = _match_forward(head, start, "(", ")") - 1
    params = {}
    group = []
    depth = 0
    for t in head[start + 1:end]:
        if t.kind == "p":
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                depth -= 1
            elif t.text == "," and depth == 0:
                _add_param(params, group)
                group = []
                continue
        group.append(t)
    _add_param(params, group)
    return params


def _add_param(params, group):
    # drop default argument
    cut = len(group)
    for idx, t in enumerate(group):
        if t.kind == "p" and t.text == "=":
            cut = idx
            break
    group = group[:cut]
    name_idx = None
    for idx in range(len(group) - 1, -1, -1):
        if group[idx].kind == "id":
            name_idx = idx
            break
    if name_idx is None or name_idx == 0:
        return
    name = group[name_idx].text
    typ = " ".join(t.text for t in group[:name_idx])
    if name and typ:
        params[name] = typ


class _Extractor:
    def __init__(self, rel_path, lexed):
        self.path = rel_path
        self.toks = lexed.tokens
        (self.allows, self.hot_lines,
         self.phase_lines) = _parse_annotations(lexed.comments)
        self.comment_lines = set()
        for c in lexed.comments:
            for ln in range(c.line, c.end_line + 1):
                self.comment_lines.add(ln)
        self.classes = []
        self.functions = []
        self.events = {
            "new": [], "cast": [], "assert": [], "thread": [],
            "statdump": [], "syscall": [],
        }

    # ------------------------------------------------------------------
    def run(self):
        self._scan_scope(_Cursor(self.toks), class_stack=[])
        self._scan_linear_events()
        return self._facts()

    # ------------------------------------------------------ scopes ----
    def _scan_scope(self, cur, class_stack):
        """Scan a namespace-level token region."""
        while not cur.at_end():
            t = cur.peek()
            if t.kind == "p":
                if t.text == "}":
                    cur.next()
                    continue
                if t.text == ";":
                    cur.next()
                    continue
            if t.kind == "id":
                if t.text == "namespace":
                    cur.next()
                    while (cur.peek() is not None and
                           not (cur.peek().kind == "p" and
                                cur.peek().text in ("{", ";"))):
                        cur.next()
                    if cur.peek() is not None:
                        cur.next()  # consume '{' or ';'
                    continue
                if t.text == "template":
                    cur.next()
                    if (cur.peek() is not None and
                            cur.peek().kind == "p" and
                            cur.peek().text == "<"):
                        cur.i = _skip_template_args(cur.toks, cur.i)
                    continue
                if t.text == "extern":
                    nxt = cur.peek(1)
                    if nxt is not None and nxt.kind == "str":
                        cur.next()
                        cur.next()
                        if (cur.peek() is not None and
                                cur.peek().kind == "p" and
                                cur.peek().text == "{"):
                            cur.next()
                        continue
                if t.text == "enum":
                    if self._try_enum(cur):
                        continue
                if t.text in ("class", "struct", "union"):
                    if self._try_class(cur, class_stack):
                        continue
            self._statement(cur, class_stack, in_class=False)

    def _try_enum(self, cur):
        """Skip `enum [class|struct] Name [: type] { ... };` so its
        enumerators are not read as declarations. Returns False
        (cursor untouched) for forward declarations or anonymous enums
        used as constants."""
        save = cur.i
        cur.next()  # 'enum'
        t = cur.peek()
        if t is not None and t.kind == "id" and t.text in ("class",
                                                           "struct"):
            cur.next()
            t = cur.peek()
        if t is None or t.kind != "id":
            cur.i = save
            return False
        cur.next()
        # optional ': underlying'
        while (cur.peek() is not None and
               not (cur.peek().kind == "p" and
                    cur.peek().text in ("{", ";"))):
            cur.next()
        t = cur.peek()
        if t is None or t.text == ";":
            cur.i = save
            return False
        cur.i = _match_forward(cur.toks, cur.i, "{", "}")
        return True

    def _try_class(self, cur, class_stack):
        """Parse a class/struct/union definition. Returns False for
        forward declarations and variable declarations of elaborated
        type (cursor restored)."""
        save = cur.i
        cur.next()  # class/struct/union
        t = cur.peek()
        while (t is not None and t.kind == "id" and
               t.text in ("alignas",)):
            cur.next()
            if (cur.peek() is not None and cur.peek().kind == "p" and
                    cur.peek().text == "("):
                cur.i = _match_forward(cur.toks, cur.i, "(", ")")
            t = cur.peek()
        name = None
        name_line = t.line if t is not None else 0
        if t is not None and t.kind == "id":
            name = t.text
            name_line = t.line
            cur.next()
            t = cur.peek()
            if (t is not None and t.kind == "id" and
                    t.text == "final"):
                cur.next()
                t = cur.peek()
        bases = []
        if t is not None and t.kind == "p" and t.text == ":":
            cur.next()
            while True:
                t = cur.peek()
                if t is None or (t.kind == "p" and t.text == "{"):
                    break
                if t.kind == "id" and t.text not in ("public",
                                                     "private",
                                                     "protected",
                                                     "virtual"):
                    # take the last identifier of each qualified base
                    nxt = cur.peek(1)
                    if not (nxt is not None and nxt.kind == "p" and
                            nxt.text == "::"):
                        bases.append(t.text)
                if t.kind == "p" and t.text == "<":
                    cur.i = _skip_template_args(cur.toks, cur.i)
                    continue
                cur.next()
            t = cur.peek()
        if t is None or not (t.kind == "p" and t.text == "{"):
            cur.i = save
            return False
        if name is None:
            # anonymous struct/union: skip its body entirely
            cur.i = _match_forward(cur.toks, cur.i, "{", "}")
            return True
        qname = "::".join(
            [c["name"] for c in class_stack] + [name])
        cls = {
            "name": name, "qname": qname, "line": name_line,
            "bases": bases, "members": [], "methods": [],
            "virtual_methods": [],
        }
        self.classes.append(cls)
        body_end = _match_forward(cur.toks, cur.i, "{", "}") - 1
        cur.next()  # '{'
        self._scan_class_body(cur, body_end, cls,
                              class_stack + [cls])
        cur.i = body_end + 1
        # optional trailing declarator + ';'
        while (cur.peek() is not None and
               not (cur.peek().kind == "p" and
                    cur.peek().text == ";")):
            cur.next()
        if cur.peek() is not None:
            cur.next()
        return True

    def _scan_class_body(self, cur, body_end, cls, class_stack):
        while cur.i < body_end:
            t = cur.peek()
            if t is None:
                return
            if t.kind == "p" and t.text in (";", "}"):
                cur.next()
                continue
            if t.kind == "id":
                # access specifiers
                nxt = cur.peek(1)
                if (t.text in ("public", "private", "protected") and
                        nxt is not None and nxt.kind == "p" and
                        nxt.text == ":"):
                    cur.next()
                    cur.next()
                    continue
                if t.text == "template":
                    cur.next()
                    if (cur.peek() is not None and
                            cur.peek().kind == "p" and
                            cur.peek().text == "<"):
                        cur.i = _skip_template_args(cur.toks, cur.i)
                    continue
                if t.text == "enum":
                    if self._try_enum(cur):
                        continue
                if t.text in ("class", "struct", "union"):
                    if self._try_class(cur, class_stack):
                        continue
            self._statement(cur, class_stack, in_class=True,
                            cls=cls)

    # -------------------------------------------------- statements ----
    def _statement(self, cur, class_stack, in_class, cls=None):
        head, term_i, term = _collect_statement(cur.toks, cur.i)
        if term is None:
            cur.i = term_i
            return
        if term == "}":
            # scope underflow; let the caller see the close
            cur.i = term_i
            if not in_class:
                cur.i = term_i + 1
            return

        is_func_like = _head_has_toplevel_paren(head)
        first = head[0] if head else None

        if term == "{":
            body_end = _match_forward(cur.toks, term_i, "{", "}")
            if is_func_like and first is not None and not (
                    first.kind == "id" and
                    first.text in ("using", "typedef", "friend")):
                self._function_def(head, cur.toks, term_i + 1,
                                   body_end - 1, cls)
            elif in_class and head:
                # member with brace initializer
                self._member_decl(head, cls)
            cur.i = body_end
            # eat an optional trailing ';'
            if (cur.peek() is not None and cur.peek().kind == "p" and
                    cur.peek().text == ";"):
                cur.next()
            return

        # ';'-terminated
        cur.i = term_i + 1
        if not head:
            return
        if first.kind == "id" and first.text in _DECL_SKIP_STARTS:
            return
        if in_class:
            if is_func_like:
                self._method_decl(head, cls)
            else:
                self._member_decl(head, cls)

    def _method_decl(self, head, cls):
        name, line, _qual = _name_before_paren(head)
        if name is None or cls is None:
            return
        texts = {t.text for t in head if t.kind == "id"}
        virtual = "virtual" in texts or "override" in texts
        cls["methods"].append({"name": name, "line": line,
                               "virtual": virtual})
        if virtual and name not in cls["virtual_methods"]:
            cls["virtual_methods"].append(name)

    def _member_decl(self, head, cls):
        if cls is None or not head:
            return
        texts = [t.text for t in head if t.kind == "id"]
        if "static" in texts[:3] or "constexpr" in texts[:3]:
            return
        if texts and texts[0] == "operator":
            return
        # split multi-declarator lists on top-level commas
        groups = [[]]
        depth = 0
        for t in head:
            if t.kind == "p":
                if t.text in ("(", "[", "{", "<"):
                    depth += 1
                elif t.text in (")", "]", "}", ">"):
                    depth = max(0, depth - 1)
                elif t.text == "," and depth == 0:
                    groups.append([])
                    continue
            groups[-1].append(t)
        type_prefix = None
        for g in groups:
            # name = last identifier before '=', '{', '[' or end
            cut = len(g)
            for idx, t in enumerate(g):
                if t.kind == "p" and t.text in ("=", "{"):
                    cut = idx
                    break
            gg = g[:cut]
            # drop trailing [...] array extent
            while gg and gg[-1].kind == "p" and gg[-1].text in ("]",):
                # strip back to matching '['
                d = 0
                k = len(gg) - 1
                while k >= 0:
                    if gg[k].kind == "p" and gg[k].text == "]":
                        d += 1
                    elif gg[k].kind == "p" and gg[k].text == "[":
                        d -= 1
                        if d == 0:
                            break
                    k -= 1
                gg = gg[:k]
            name_idx = None
            for idx in range(len(gg) - 1, -1, -1):
                if gg[idx].kind == "id":
                    name_idx = idx
                    break
            if name_idx is None or name_idx == 0:
                if name_idx == 0 and type_prefix:
                    # `int a_, b_;` second group is just the name
                    self._push_member(cls, gg[0].text, gg[0].line,
                                      type_prefix)
                continue
            name = gg[name_idx].text
            if name in _TYPE_QUALIFIERS:
                continue
            typ = " ".join(t.text for t in gg[:name_idx])
            type_prefix = typ
            self._push_member(cls, name, gg[name_idx].line, typ)

    def _push_member(self, cls, name, line, typ):
        cls["members"].append({"name": name, "line": line, "type": typ})

    # --------------------------------------------------- functions ----
    def _function_def(self, head, toks, body_start, body_end, cls):
        name, line, qual = _name_before_paren(head)
        if name is None:
            return
        if cls is not None and qual is None:
            qname = cls["qname"] + "::" + name
            owner = cls["qname"]
        elif qual is not None:
            qual = qual.removeprefix("lsqscale::")
            qname = (qual + "::" + name) if qual else name
            owner = qual or None
        else:
            qname = name
            owner = None
        hot = any(line - 3 <= hl <= line for hl in self.hot_lines)
        body = self._analyze_body(toks, body_start, body_end)
        fn = {
            "qname": qname, "name": name, "cls": owner, "line": line,
            "hot": hot,
            "params": _param_types(head),
        }
        fn.update(body)
        self.functions.append(fn)

    def _analyze_body(self, toks, start, end):
        calls = set()
        member_calls = []
        purity = []
        cold_until = -1  # token index: inside a cold macro arg list
        i = start
        while i < end:
            t = toks[i]
            if t.kind == "id":
                nxt = toks[i + 1] if i + 1 < end else None
                prev = toks[i - 1] if i - 1 >= 0 else None
                cold = i < cold_until
                # cold macro region entry
                if (t.text in _COLD_MACROS and nxt is not None and
                        nxt.kind == "p" and nxt.text == "("):
                    reg_end = _match_forward(toks, i + 1, "(", ")")
                    cold_until = max(cold_until, reg_end)
                    i += 1
                    continue
                is_call = (nxt is not None and nxt.kind == "p" and
                           nxt.text == "(" and
                           t.text not in _NOT_CALLS)
                if is_call and not cold:
                    if prev is not None and prev.kind == "p" and \
                            prev.text in (".", "->"):
                        recv = None
                        if i - 2 >= 0 and toks[i - 2].kind == "id":
                            recv = toks[i - 2].text
                        member_calls.append({
                            "recv": recv, "op": prev.text,
                            "method": t.text, "line": t.line,
                        })
                    else:
                        # walk back over 'A::' qualifiers
                        parts = [t.text]
                        j = i
                        while (j - 2 >= 0 and
                               toks[j - 1].kind == "p" and
                               toks[j - 1].text == "::" and
                               toks[j - 2].kind == "id"):
                            parts.append(toks[j - 2].text)
                            j -= 2
                        parts.reverse()
                        calls.add("::".join(parts))
                if not cold:
                    self._purity_scan(toks, i, end, purity)
            i += 1
        return {
            "calls": sorted(calls),
            "member_calls": member_calls,
            "purity": purity,
        }

    def _purity_scan(self, toks, i, end, purity):
        t = toks[i]
        nxt = toks[i + 1] if i + 1 < end else None
        prev = toks[i - 1] if i - 1 >= 0 else None
        after_scope = (prev is not None and prev.kind == "p" and
                       prev.text == "::")

        def called():
            return (nxt is not None and nxt.kind == "p" and
                    nxt.text in ("(", "<", "{"))

        if t.text in _MUTEX_IDENTS:
            purity.append({"kind": "hot-mutex", "line": t.line,
                           "what": t.text})
        elif t.text in ("lock", "unlock", "try_lock") and \
                prev is not None and prev.kind == "p" and \
                prev.text in (".", "->") and called():
            purity.append({"kind": "hot-mutex", "line": t.line,
                           "what": "." + t.text + "()"})
        elif t.text in ("cout", "cerr", "clog") and after_scope:
            purity.append({"kind": "hot-io", "line": t.line,
                           "what": "std::" + t.text})
        elif t.text in _IO_CALL_IDENTS and called() and (
                prev is None or prev.kind != "p" or
                prev.text not in (".", "->")):
            purity.append({"kind": "hot-io", "line": t.line,
                           "what": t.text + "()"})
        elif t.text in _TIMER_IDENTS and (called() or
                                          t.text == "ScopedHostPhase"):
            purity.append({"kind": "hot-phase-timer", "line": t.line,
                           "what": t.text})

    # ------------------------------------------- linear event scan ----
    def _scan_linear_events(self):
        """File-wide token scan for the ported PR 1/2/3/5 rules."""
        toks = self.toks
        n = len(toks)
        i = 0
        while i < n:
            t = toks[i]
            nxt = toks[i + 1] if i + 1 < n else None
            prev = toks[i - 1] if i > 0 else None
            if t.kind != "id":
                i += 1
                continue
            # raw-new -----------------------------------------------
            if t.text == "new" and nxt is not None and (
                    nxt.kind == "id" or
                    (nxt.kind == "p" and nxt.text in ("::", "<"))):
                self.events["new"].append({"line": t.line})

            # bare-assert -------------------------------------------
            elif (t.text == "assert" and nxt is not None and
                  nxt.kind == "p" and nxt.text == "(" and
                  not (prev is not None and prev.kind == "p" and
                       prev.text in (".", "->", "::"))):
                self.events["assert"].append({"line": t.line})

            # raw-thread --------------------------------------------
            elif (t.text in _THREAD_IDENTS and prev is not None and
                  prev.kind == "p" and prev.text == "::" and
                  i >= 2 and toks[i - 2].kind == "id" and
                  toks[i - 2].text == "std"):
                follows_scope = (nxt is not None and nxt.kind == "p"
                                 and nxt.text == "::")
                if not follows_scope:
                    self.events["thread"].append(
                        {"line": t.line, "what": "std::" + t.text})
            elif (t.text == "async" and prev is not None and
                  prev.kind == "p" and prev.text == "::" and
                  i >= 2 and toks[i - 2].text == "std" and
                  nxt is not None and nxt.kind == "p" and
                  nxt.text == "("):
                self.events["thread"].append(
                    {"line": t.line, "what": "std::async"})

            # stat-dump ---------------------------------------------
            elif (t.text in ("cout", "cerr") and prev is not None and
                  prev.kind == "p" and prev.text == "::" and
                  i >= 2 and toks[i - 2].text == "std"):
                self.events["statdump"].append(
                    {"line": t.line, "what": "std::" + t.text})
            elif (t.text in _STATDUMP_CALL_IDENTS and
                  nxt is not None and nxt.kind == "p" and
                  nxt.text == "(" and
                  not (prev is not None and prev.kind == "p" and
                       prev.text in (".", "->"))):
                self.events["statdump"].append(
                    {"line": t.line, "what": t.text + "()"})

            # unchecked-syscall -------------------------------------
            elif (t.text in _SYSCALL_IDENTS and nxt is not None and
                  nxt.kind == "p" and nxt.text == "("):
                j = i - 1
                # allow a '::' or 'std::' prefix
                if j >= 0 and toks[j].kind == "p" and \
                        toks[j].text == "::":
                    j -= 1
                    if j >= 0 and toks[j].kind == "id" and \
                            toks[j].text == "std":
                        j -= 1
                stmt_pos = False
                if j < 0:
                    stmt_pos = True
                else:
                    pt = toks[j]
                    if pt.kind == "p" and pt.text in (";", "{", "}",
                                                      ":"):
                        stmt_pos = True
                    elif (pt.kind == "p" and pt.text == ")" and
                          j >= 2 and toks[j - 1].kind == "id" and
                          toks[j - 1].text == "void" and
                          toks[j - 2].kind == "p" and
                          toks[j - 2].text == "("):
                        stmt_pos = True
                if stmt_pos:
                    self.events["syscall"].append(
                        {"line": t.line, "what": t.text})

            # narrowing-cast ----------------------------------------
            elif t.text == "static_cast" and nxt is not None and \
                    nxt.kind == "p" and nxt.text == "<":
                close = _skip_template_args(toks, i + 1)
                type_toks = toks[i + 2:close - 1]
                if close < n and toks[close].kind == "p" and \
                        toks[close].text == "(":
                    op_end = _match_forward(toks, close, "(", ")")
                    self._cast_event(t.line, type_toks,
                                     toks[close + 1:op_end - 1])
            i += 1

        # C-style casts need a separate pass: '(' T ')' '('
        i = 0
        while i < n:
            t = toks[i]
            if t.kind == "p" and t.text == "(":
                close = _match_forward(toks, i, "(", ")")
                inner = toks[i + 1:close - 1]
                if inner and close < n and \
                        toks[close].kind == "p" and \
                        toks[close].text == "(" and \
                        self._is_narrow_type(inner):
                    op_end = _match_forward(toks, close, "(", ")")
                    self._cast_event(t.line, inner,
                                     toks[close + 1:op_end - 1])
            i += 1

    @staticmethod
    def _is_narrow_type(type_toks):
        ids = [t.text for t in type_toks if t.kind == "id"]
        if not ids or any(t.kind not in ("id", "p")
                          for t in type_toks):
            return False
        if any(t.kind == "p" and t.text not in ("::",)
               for t in type_toks):
            return False
        core = [x for x in ids if x != "std"]
        if core == ["unsigned", "int"]:
            return True
        return len(core) == 1 and core[0] in _NARROW_TYPES

    def _cast_event(self, line, type_toks, operand_toks):
        if not self._is_narrow_type(type_toks):
            return
        operand = " ".join(t.text for t in operand_toks)
        if _WIDE_MARKER_RE.search(operand):
            typ = "".join(t.text for t in type_toks)
            self.events["cast"].append(
                {"line": line, "type": typ,
                 "operand": operand[:80]})

    # ------------------------------------------------------- facts ----
    def _facts(self):
        return {
            "path": self.path,
            "allows": {str(k): v for k, v in self.allows.items()},
            "classes": self.classes,
            "functions": self.functions,
            "events": self.events,
            "phase_lines": {str(k): v
                            for k, v in self.phase_lines.items()},
        }


def extract(rel_path: str, text: str) -> dict:
    """Parse one file into its facts dict."""
    lexed = lexer.lex(text)
    return _Extractor(rel_path, lexed).run()
