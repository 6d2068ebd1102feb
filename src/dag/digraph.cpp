#include "dag/digraph.h"

#include <algorithm>
#include <utility>

#include "dag/csr.h"

namespace prio::dag {

Digraph::Digraph() = default;
Digraph::~Digraph() = default;

Digraph::Digraph(const Digraph& other)
    : names_(other.names_),
      children_(other.children_),
      parents_(other.parents_),
      num_edges_(other.num_edges_) {
  // The lazy members may be materializing under a concurrent const
  // reader of `other`; snapshot them under its mutex.
  const std::lock_guard<std::mutex> lock(other.cache_mutex_);
  name_index_ = other.name_index_;
  edge_set_ = other.edge_set_;
  name_index_built_ = other.name_index_built_;
  edge_set_built_ = other.edge_set_built_;
  csr_cache_ = other.csr_cache_;
}

Digraph& Digraph::operator=(const Digraph& other) {
  if (this == &other) return *this;
  names_ = other.names_;
  children_ = other.children_;
  parents_ = other.parents_;
  num_edges_ = other.num_edges_;
  const std::lock_guard<std::mutex> lock(other.cache_mutex_);
  name_index_ = other.name_index_;
  edge_set_ = other.edge_set_;
  name_index_built_ = other.name_index_built_;
  edge_set_built_ = other.edge_set_built_;
  csr_cache_ = other.csr_cache_;
  return *this;
}

Digraph::Digraph(Digraph&& other) noexcept
    : names_(std::move(other.names_)),
      children_(std::move(other.children_)),
      parents_(std::move(other.parents_)),
      num_edges_(std::exchange(other.num_edges_, 0)),
      name_index_(std::move(other.name_index_)),
      edge_set_(std::move(other.edge_set_)),
      name_index_built_(std::exchange(other.name_index_built_, true)),
      edge_set_built_(std::exchange(other.edge_set_built_, true)),
      csr_cache_(std::move(other.csr_cache_)) {}

Digraph& Digraph::operator=(Digraph&& other) noexcept {
  if (this == &other) return *this;
  names_ = std::move(other.names_);
  children_ = std::move(other.children_);
  parents_ = std::move(other.parents_);
  num_edges_ = std::exchange(other.num_edges_, 0);
  name_index_ = std::move(other.name_index_);
  edge_set_ = std::move(other.edge_set_);
  name_index_built_ = std::exchange(other.name_index_built_, true);
  edge_set_built_ = std::exchange(other.edge_set_built_, true);
  csr_cache_ = std::move(other.csr_cache_);
  return *this;
}

Digraph Digraph::fromAdjacency(std::vector<std::string> names,
                               std::vector<std::vector<NodeId>> children,
                               std::vector<std::vector<NodeId>> parents,
                               std::size_t num_edges) {
  PRIO_CHECK(names.size() == children.size() &&
             names.size() == parents.size());
  Digraph g;
  g.names_ = std::move(names);
  g.children_ = std::move(children);
  g.parents_ = std::move(parents);
  g.num_edges_ = num_edges;
  g.name_index_built_ = false;
  g.edge_set_built_ = false;
  return g;
}

void Digraph::ensureNameIndex() const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  if (name_index_built_) return;
  name_index_.reserve(names_.size());
  for (NodeId u = 0; u < names_.size(); ++u) name_index_.emplace(names_[u], u);
  name_index_built_ = true;
}

void Digraph::ensureEdgeSet() const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  if (edge_set_built_) return;
  edge_set_.reserve(num_edges_);
  for (NodeId u = 0; u < children_.size(); ++u) {
    for (NodeId v : children_[u]) edge_set_.insert(edgeKey(u, v));
  }
  edge_set_built_ = true;
}

const Csr& Digraph::csr() const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  if (csr_cache_ == nullptr) {
    csr_cache_ = std::make_shared<const Csr>(Csr::build(*this));
  }
  return *csr_cache_;
}

NodeId Digraph::addNode() {
  return addNode("n" + std::to_string(numNodes()));
}

NodeId Digraph::addNode(std::string name) {
  PRIO_CHECK_MSG(!name.empty(), "node name must be non-empty");
  ensureNameIndex();  // incremental maintenance needs the built index
  PRIO_CHECK_MSG(name_index_.find(name) == name_index_.end(),
                 "duplicate node name: " << name);
  const auto id = static_cast<NodeId>(numNodes());
  name_index_.emplace(name, id);
  names_.push_back(std::move(name));
  children_.emplace_back();
  parents_.emplace_back();
  csr_cache_.reset();  // mutation requires exclusive access; no lock needed
  return id;
}

bool Digraph::addEdge(NodeId u, NodeId v) {
  PRIO_CHECK(u < numNodes() && v < numNodes());
  PRIO_CHECK_MSG(u != v, "self-loop on node " << names_[u]);
  ensureEdgeSet();  // incremental maintenance needs the built set
  if (!edge_set_.insert(edgeKey(u, v)).second) return false;
  children_[u].push_back(v);
  parents_[v].push_back(u);
  ++num_edges_;
  csr_cache_.reset();  // mutation requires exclusive access; no lock needed
  return true;
}

bool Digraph::hasEdge(NodeId u, NodeId v) const {
  PRIO_CHECK(u < numNodes() && v < numNodes());
  ensureEdgeSet();
  return edge_set_.find(edgeKey(u, v)) != edge_set_.end();
}

std::vector<NodeId> Digraph::sources() const {
  std::vector<NodeId> out;
  for (NodeId u = 0; u < numNodes(); ++u) {
    if (isSource(u)) out.push_back(u);
  }
  return out;
}

std::vector<NodeId> Digraph::sinks() const {
  std::vector<NodeId> out;
  for (NodeId u = 0; u < numNodes(); ++u) {
    if (isSink(u)) out.push_back(u);
  }
  return out;
}

std::optional<NodeId> Digraph::findNode(std::string_view name) const {
  ensureNameIndex();
  auto it = name_index_.find(std::string(name));
  if (it == name_index_.end()) return std::nullopt;
  return it->second;
}

Digraph Digraph::reversed() const {
  // As an addEdge(v, u) loop over every arc u -> v in id order would
  // build it: u's parents are its old children in their order, v's
  // children its old parents in ascending id.
  const std::size_t n = numNodes();
  std::vector<std::vector<NodeId>> children(n);
  std::vector<std::vector<NodeId>> parents(children_.begin(), children_.end());
  for (NodeId v = 0; v < n; ++v) children[v].reserve(parents_[v].size());
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : children_[u]) children[v].push_back(u);
  }
  return fromAdjacency(names_, std::move(children), std::move(parents),
                       num_edges_);
}

Digraph Digraph::inducedSubgraph(std::span<const NodeId> keep) const {
  // (old id, new id) sorted by old id: one binary search per arc and an
  // adjacent-pair scan for repeated ids.
  std::vector<std::pair<NodeId, NodeId>> local;
  local.reserve(keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    PRIO_CHECK(keep[i] < numNodes());
    local.emplace_back(keep[i], static_cast<NodeId>(i));
  }
  std::sort(local.begin(), local.end());
  const auto repeat = std::adjacent_find(
      local.begin(), local.end(),
      [](const auto& a, const auto& b) { return a.first == b.first; });
  PRIO_CHECK_MSG(repeat == local.end(),
                 "duplicate node in inducedSubgraph: " << names_[repeat->first]);
  const auto newId = [&](NodeId old) -> std::optional<NodeId> {
    const auto it = std::lower_bound(
        local.begin(), local.end(), old,
        [](const auto& entry, NodeId id) { return entry.first < id; });
    if (it == local.end() || it->first != old) return std::nullopt;
    return it->second;
  };

  // As an addEdge loop over `keep` in order would build it: children in
  // their original order, parents in ascending new id.
  std::vector<std::string> names;
  names.reserve(keep.size());
  std::vector<std::vector<NodeId>> children(keep.size());
  std::vector<std::vector<NodeId>> parents(keep.size());
  std::size_t num_edges = 0;
  for (std::size_t i = 0; i < keep.size(); ++i) {
    names.push_back(names_[keep[i]]);
    for (NodeId v : children_[keep[i]]) {
      if (const auto j = newId(v)) {
        children[i].push_back(*j);
        parents[*j].push_back(static_cast<NodeId>(i));
        ++num_edges;
      }
    }
  }
  return fromAdjacency(std::move(names), std::move(children),
                       std::move(parents), num_edges);
}

void Digraph::reserveNodes(std::size_t n) {
  names_.reserve(n);
  children_.reserve(n);
  parents_.reserve(n);
  name_index_.reserve(n);
}

}  // namespace prio::dag
