"""Incremental summary cache for whole-program staticcheck runs.

One JSON file per module under ``.staticcheck-cache/``, keyed by an
**environment hash**: the module's own content hash combined with the
environment hashes of every module it (transitively) imports. A module
is re-analyzed iff that hash changed — i.e. its own source changed, or
anything reachable through its import graph did; everything else loads
its findings, summaries, and persist-order candidate metadata straight
from the cache. Cyclic imports are handled by condensing the module
graph into SCCs first (members of an import cycle share one hash).

Only *imports-reachable* facts are cached: per-function summaries, the
candidate findings produced with them (inline deferral to callee
bodies, callee must-open gates), and the AST rules' findings, which
depend on the module's own source alone. Caller-direction discharge rules
(mechanism/lifecycle/gated-context) are deliberately recomputed on
every run by ``interproc.py`` — a new caller in an unrelated module
must be able to change a cached module's verdict without touching its
hash.

The format/salt pair versions the store: any change to summary or
checker semantics bumps :data:`SALT` and the whole cache silently
misses (never a wrong hit).
"""

import hashlib
import json
import os

CACHE_FORMAT = 1

#: Bump when summary/checker semantics change; invalidates everything.
SALT = "staticcheck-interproc-v2"

DEFAULT_CACHE_DIR = ".staticcheck-cache"


def content_hash(source):
    """Salted content hash of one module's source text."""
    digest = hashlib.sha256()
    digest.update(SALT.encode("utf-8"))
    digest.update(source.encode("utf-8"))
    return digest.hexdigest()


def _module_deps(project):
    """Imports-only dependency edges restricted to indexed modules."""
    deps = {}
    for key, module in project.modules.items():
        deps[key] = sorted({target for target in module.imports.values()
                            if target in project.modules and target != key})
    return deps


def env_hashes(project, contents):
    """Environment hash per module key.

    ``contents`` maps module key -> content hash. The import graph is
    condensed into SCCs (iterative Tarjan, deterministic); each SCC's
    hash covers its members' content hashes plus the env hashes of the
    SCCs it imports, computed in reverse topological order so every
    dependency hash exists before it is consumed.
    """
    deps = _module_deps(project)
    nodes = sorted(deps)

    index_of = {}
    lowlink = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]
    for root in nodes:
        if root in index_of:
            continue
        work = [(root, iter(deps[root]))]
        index_of[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(deps[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)

    scc_of = {}
    for number, scc in enumerate(sccs):
        for member in scc:
            scc_of[member] = number

    env = {}
    # Tarjan emits SCCs in reverse topological order: dependencies
    # (sinks) first, so every dep hash is ready when needed.
    for scc in sccs:
        digest = hashlib.sha256()
        digest.update(SALT.encode("utf-8"))
        for member in sorted(scc):
            digest.update(member.encode("utf-8"))
            digest.update(contents.get(member, "").encode("utf-8"))
        external = sorted({env[dep] for member in scc
                           for dep in deps[member]
                           if scc_of[dep] != scc_of[member]})
        for dep_hash in external:
            digest.update(dep_hash.encode("utf-8"))
        scc_hash = digest.hexdigest()
        for member in scc:
            env[member] = scc_hash
    return env


class SummaryCache:
    """The on-disk per-module store under one cache directory."""

    def __init__(self, root=DEFAULT_CACHE_DIR):
        self.root = root

    def _path(self, key):
        safe = "".join(ch if ch.isalnum() or ch in "._-" else "_"
                       for ch in key)
        return os.path.join(self.root, safe + ".json")

    def load(self, key, path, env_hash):
        """The cached entry for ``key``, or None on any mismatch.

        A hit requires the format/salt pair, the stored file path (a
        moved file must re-analyze so finding paths stay truthful), and
        the environment hash to all match.
        """
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if entry.get("format") != CACHE_FORMAT \
                or entry.get("salt") != SALT \
                or entry.get("path") != path \
                or entry.get("env_hash") != env_hash:
            return None
        return entry

    def store(self, key, entry):
        """Atomically write one module entry (tmp file + rename)."""
        os.makedirs(self.root, exist_ok=True)
        target = self._path(key)
        tmp = target + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(entry, handle, sort_keys=True)
        os.replace(tmp, target)
