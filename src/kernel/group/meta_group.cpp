#include "kernel/group/meta_group.h"

#include <algorithm>
#include <charconv>
#include <sstream>

namespace phoenix::kernel {

namespace {

constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

/// Partition id -> index of its first entry in `members`, kAbsent if none.
std::vector<std::uint32_t> first_index(const std::vector<MetaMember>& members) {
  std::size_t size = 0;
  for (const MetaMember& m : members) {
    size = std::max(size, std::size_t{m.partition.value} + 1);
  }
  std::vector<std::uint32_t> index(size, kAbsent);
  // Backwards, so a duplicated partition ends up at its first entry.
  for (std::size_t i = members.size(); i-- > 0;) {
    index[members[i].partition.value] = static_cast<std::uint32_t>(i);
  }
  return index;
}

std::uint32_t lookup(const std::vector<std::uint32_t>& index, net::PartitionId p) {
  return p.value < index.size() ? index[p.value] : kAbsent;
}

void append_number(std::string& out, std::uint64_t value) {
  char digits[20];
  const auto result = std::to_chars(digits, digits + sizeof digits, value);
  out.append(digits, result.ptr);
}

}  // namespace

MetaViewDiff MetaView::diff_from(const MetaView& old) const {
  MetaViewDiff diff;
  const std::vector<std::uint32_t> in_old = first_index(old.members);
  for (const MetaMember& m : members) {
    const std::uint32_t i = lookup(in_old, m.partition);
    if (i == kAbsent) {
      diff.added.push_back(m.partition);
      diff.changed.push_back(m);
    } else if (old.members[i] != m) {
      diff.changed.push_back(m);
    }
  }
  const std::vector<std::uint32_t> in_new = first_index(members);
  for (const MetaMember& m : old.members) {
    if (lookup(in_new, m.partition) == kAbsent) diff.removed.push_back(m.partition);
  }
  return diff;
}

std::string MetaView::serialize() const {
  std::string out;
  // Room for a typical member ("|1023,2046,3,12345678"); longer ids grow it.
  out.reserve(24 * (members.size() + 1));
  append_number(out, view_id);
  // The epoch token is emitted only when nonzero so pre-quorum views (and
  // everything the paper experiments checkpoint) keep their legacy bytes.
  if (epoch != 0) {
    out += "|@";
    append_number(out, epoch);
  }
  for (const auto& m : members) {
    out += '|';
    append_number(out, m.partition.value);
    out += ',';
    append_number(out, m.gsd.node.value);
    out += ',';
    append_number(out, m.gsd.port.value);
    out += ',';
    append_number(out, m.incarnation);
  }
  return out;
}

MetaView MetaView::deserialize(const std::string& data) {
  MetaView view;
  std::istringstream in(data);
  std::string field;
  if (!std::getline(in, field, '|')) return view;
  try {
    view.view_id = std::stoull(field);
  } catch (const std::exception&) {
    return view;
  }
  while (std::getline(in, field, '|')) {
    if (!field.empty() && field.front() == '@') {
      try {
        view.epoch = std::stoull(field.substr(1));
      } catch (const std::exception&) {
        // Malformed epoch token: leave it at 0 (unfenced).
      }
      continue;
    }
    std::istringstream member(field);
    std::string part, node, port, inc;
    if (std::getline(member, part, ',') && std::getline(member, node, ',') &&
        std::getline(member, port, ',') && std::getline(member, inc, ',')) {
      try {
        view.members.push_back(MetaMember{
            net::PartitionId{static_cast<std::uint32_t>(std::stoul(part))},
            net::Address{net::NodeId{static_cast<std::uint32_t>(std::stoul(node))},
                         net::PortId{static_cast<std::uint16_t>(std::stoul(port))}},
            std::stoull(inc)});
      } catch (const std::exception&) {
        // Skip malformed member entries rather than failing recovery.
      }
    }
  }
  return view;
}

}  // namespace phoenix::kernel
