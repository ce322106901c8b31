#ifndef COSMOS_STREAM_TUPLE_H_
#define COSMOS_STREAM_TUPLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "stream/schema.h"
#include "stream/value.h"

namespace cosmos {

// A tuple of a stream: values positionally aligned with a shared Schema plus
// the application timestamp (paper §4: timestamps drawn from the discrete
// application time domain T). Join results carry composite schemas whose
// attribute names are qualified ("O.itemID").
class Tuple {
 public:
  Tuple() = default;
  Tuple(std::shared_ptr<const Schema> schema, std::vector<Value> values,
        Timestamp timestamp);

  const std::shared_ptr<const Schema>& schema() const { return schema_; }
  const std::vector<Value>& values() const { return values_; }
  Timestamp timestamp() const { return timestamp_; }

  size_t num_values() const { return values_.size(); }
  const Value& value(size_t i) const { return values_[i]; }

  // By-name access through the schema.
  Result<Value> GetAttribute(const std::string& name) const;

  // Serialized size of the payload (values only) plus an 8-byte timestamp;
  // this is the unit of the communication-cost model.
  size_t SerializedSize() const;

  // Projects onto `indices` (into this tuple's schema), producing a tuple
  // over `projected_schema`, which has one attribute per index (renaming
  // them where its names differ).
  Tuple Project(const std::vector<size_t>& indices,
                std::shared_ptr<const Schema> projected_schema) const;

  std::string ToString() const;

  // Value-wise equality (schemas compared by attribute names/types).
  bool operator==(const Tuple& other) const;

 private:
  std::shared_ptr<const Schema> schema_;
  std::vector<Value> values_;
  Timestamp timestamp_ = kInvalidTimestamp;
};

// Builds the composite schema of a join: the `parts` schemas concatenated
// in order, each attribute name qualified with its part's alias ("O.id").
std::shared_ptr<const Schema> MakeJoinedSchema(
    const std::vector<std::pair<const Schema*, std::string>>& parts,
    const std::string& name);

}  // namespace cosmos

#endif  // COSMOS_STREAM_TUPLE_H_
