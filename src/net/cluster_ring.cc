#include "net/cluster_ring.h"

#include <algorithm>

#include "common/decimal.h"
#include "common/error.h"

namespace rfv {

bool
parseEndpoint(const std::string &text, RingNode &out, std::string &error)
{
    const size_t colon = text.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == text.size()) {
        error = "endpoint is not host:port: '" + text + "'";
        return false;
    }
    u16 port = 0;
    if (!parseCanonical(std::string_view(text).substr(colon + 1), port) ||
        port == 0) {
        error = "endpoint port is not a decimal in [1, 65535]: '" + text +
                "'";
        return false;
    }
    out.host = text.substr(0, colon);
    out.port = port;
    return true;
}

bool
parseEndpointList(const std::string &text, std::vector<RingNode> &out,
                  std::string &error)
{
    out.clear();
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string part = text.substr(pos, comma - pos);
        if (part.empty()) {
            error = "empty endpoint in list '" + text + "'";
            return false;
        }
        RingNode node;
        if (!parseEndpoint(part, node, error))
            return false;
        out.push_back(std::move(node));
        pos = comma + 1;
        if (comma == text.size())
            break;
    }
    if (out.empty()) {
        error = "empty endpoint list";
        return false;
    }
    return true;
}

u64
HashRing::positionOf(const Hash128 &key)
{
    // Fold both independent lanes so a collision needs to line up in
    // 128 bits, not 64.
    return key.hi ^ key.lo;
}

HashRing
HashRing::build(std::vector<RingNode> nodes, u32 vnodes, u32 replication,
                u64 epoch)
{
    if (nodes.empty())
        throw ConfigError("cluster ring needs at least one node");
    if (replication == 0)
        throw ConfigError("cluster replication factor must be >= 1");
    if (vnodes == 0)
        throw ConfigError("cluster vnodes must be >= 1");
    for (size_t i = 0; i < nodes.size(); ++i)
        for (size_t j = i + 1; j < nodes.size(); ++j)
            if (nodes[i].endpoint() == nodes[j].endpoint())
                throw ConfigError("duplicate cluster node '" +
                                  nodes[i].endpoint() + "'");

    HashRing ring;
    ring.nodes_ = std::move(nodes);
    ring.vnodes_ = vnodes;
    ring.replication_ = std::min<u32>(
        replication, static_cast<u32>(ring.nodes_.size()));
    ring.epoch_ = epoch;

    ring.points_.reserve(ring.nodes_.size() * vnodes);
    for (u32 n = 0; n < ring.nodes_.size(); ++n) {
        const std::string endpoint = ring.nodes_[n].endpoint();
        for (u32 v = 0; v < vnodes; ++v) {
            Hasher h;
            h.str(endpoint);
            h.u32v(v);
            ring.points_.emplace_back(positionOf(h.digest()), n);
        }
    }
    // Position ties (vanishingly rare) break by node index, keeping
    // the sort — and thus ownership — fully deterministic.
    std::sort(ring.points_.begin(), ring.points_.end());
    return ring;
}

i32
HashRing::indexOf(const std::string &endpoint) const
{
    for (size_t i = 0; i < nodes_.size(); ++i)
        if (nodes_[i].endpoint() == endpoint)
            return static_cast<i32>(i);
    return -1;
}

std::vector<u32>
HashRing::ownersFor(const Hash128 &key) const
{
    std::vector<u32> owners;
    if (points_.empty())
        return owners;
    const u64 pos = positionOf(key);
    auto it = std::lower_bound(
        points_.begin(), points_.end(),
        std::make_pair(pos, static_cast<u32>(0)));
    const u32 want =
        std::min<u32>(replication_, static_cast<u32>(nodes_.size()));
    owners.reserve(want);
    for (size_t step = 0; step < points_.size() && owners.size() < want;
         ++step) {
        if (it == points_.end())
            it = points_.begin(); // clockwise wrap
        const u32 node = it->second;
        if (std::find(owners.begin(), owners.end(), node) == owners.end())
            owners.push_back(node);
        ++it;
    }
    return owners;
}

u32
HashRing::primaryFor(const Hash128 &key) const
{
    const std::vector<u32> owners = ownersFor(key);
    return owners.empty() ? 0 : owners[0];
}

bool
HashRing::owns(const std::string &endpoint, const Hash128 &key) const
{
    const i32 index = indexOf(endpoint);
    if (index < 0)
        return false;
    const std::vector<u32> owners = ownersFor(key);
    return std::find(owners.begin(), owners.end(),
                     static_cast<u32>(index)) != owners.end();
}

// ---- CLUSTER verb codec ------------------------------------------------

Message
encodeClusterInfo(const HashRing &ring, const std::string &self)
{
    Message m;
    m.verb = kVerbCluster;
    m.add("status", serviceStatusName(ServiceStatus::kOk));
    m.addU64("ring_epoch", ring.epoch());
    m.addU64("replication", ring.replication());
    m.addU64("vnodes", ring.vnodesPerNode());
    m.add("self", self);
    for (const RingNode &node : ring.nodes())
        m.add("node", node.endpoint());
    return m;
}

bool
decodeClusterInfo(const Message &msg, HashRing &out, std::string &self,
                  std::string &error)
{
    if (msg.verb != kVerbCluster) {
        error = "expected CLUSTER, got '" + msg.verb + "'";
        return false;
    }
    u64 epoch = 0, replication = 0, vnodes = 0;
    if (!msg.getU64("ring_epoch", epoch)) {
        error = "CLUSTER without numeric ring_epoch";
        return false;
    }
    if (!msg.getU64("replication", replication) || replication == 0 ||
        replication > 0xffffffffull) {
        error = "CLUSTER with bad replication '" +
                msg.get("replication") + "'";
        return false;
    }
    if (!msg.getU64("vnodes", vnodes) || vnodes == 0 || vnodes > 4096) {
        error = "CLUSTER with bad vnodes '" + msg.get("vnodes") + "'";
        return false;
    }
    std::vector<RingNode> nodes;
    for (const std::string &endpoint : msg.getAll("node")) {
        RingNode node;
        if (!parseEndpoint(endpoint, node, error))
            return false;
        nodes.push_back(std::move(node));
    }
    if (nodes.empty()) {
        error = "CLUSTER without node list";
        return false;
    }
    self = msg.get("self");
    if (self.empty()) {
        error = "CLUSTER without self endpoint";
        return false;
    }
    try {
        out = HashRing::build(std::move(nodes),
                              static_cast<u32>(vnodes),
                              static_cast<u32>(replication), epoch);
    } catch (const ConfigError &e) {
        error = e.what();
        return false;
    }
    if (out.indexOf(self) < 0) {
        error = "CLUSTER self '" + self + "' not in node list";
        return false;
    }
    return true;
}

} // namespace rfv
