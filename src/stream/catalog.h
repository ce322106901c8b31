#ifndef COSMOS_STREAM_CATALOG_H_
#define COSMOS_STREAM_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "stream/schema.h"

namespace cosmos {

// Metadata tracked per registered stream.
struct StreamInfo {
  std::shared_ptr<const Schema> schema;
  // Estimated arrival rate in tuples per second; drives the benefit model.
  double rate_tuples_per_sec = 1.0;
  // Node id of the publisher (overlay node), if known.
  int publisher_node = -1;
};

// The stream catalog: the authoritative name -> StreamInfo registry. The
// paper (§3) floods schema metadata to every node, or keys it in a DHT when
// there are many streams; in-process both resolve identically, so one
// Catalog instance stands for the logical directory.
class Catalog {
 public:
  // Registers a stream; fails with kAlreadyExists on duplicate names.
  Status RegisterStream(std::shared_ptr<const Schema> schema,
                        double rate_tuples_per_sec = 1.0,
                        int publisher_node = -1);

  // Replaces the rate estimate of an existing stream.
  Status UpdateRate(const std::string& stream, double rate_tuples_per_sec);

  bool HasStream(const std::string& name) const;
  Result<StreamInfo> Lookup(const std::string& name) const;
  Result<std::shared_ptr<const Schema>> LookupSchema(
      const std::string& name) const;

  std::vector<std::string> StreamNames() const;
  size_t num_streams() const { return streams_.size(); }

 private:
  std::map<std::string, StreamInfo> streams_;
};

}  // namespace cosmos

#endif  // COSMOS_STREAM_CATALOG_H_
