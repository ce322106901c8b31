#ifndef COSMOS_CBN_DATAGRAM_H_
#define COSMOS_CBN_DATAGRAM_H_

#include <cstdint>
#include <string>

#include "stream/tuple.h"

namespace cosmos {

// Dense per-network id of a stream name (see StreamTable). Datagrams carry
// it so routers key every per-hop lookup by index, never by name.
using StreamId = uint32_t;
inline constexpr StreamId kNoStream = UINT32_MAX;

// The unit of transport in the content-based network: one tuple of one
// named stream (paper §3: "each datagram consists of several
// attribute-value pairs" and belongs to exactly one stream). The attribute
// names/types come from the tuple's schema, which may be a projected subset
// of the stream's full schema after early projection.
//
// `stream_id` is the stream's id in the network carrying the datagram.
// ContentBasedNetwork::Publish stamps it, and the name, from the
// publisher's handle. The name stays because the wire-size model, the
// codec, the trace and delivery callbacks use it.
struct Datagram {
  std::string stream;
  Tuple tuple;
  StreamId stream_id = kNoStream;

  // Wire size: stream-name header + encoded tuple. This is the quantity the
  // communication-cost model accumulates per link.
  size_t SerializedSize() const {
    return 2 + stream.size() + tuple.SerializedSize();
  }

  std::string ToString() const { return stream + ":" + tuple.ToString(); }
};

}  // namespace cosmos

#endif  // COSMOS_CBN_DATAGRAM_H_
