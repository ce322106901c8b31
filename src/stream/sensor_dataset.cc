#include "stream/sensor_dataset.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"

namespace cosmos {
namespace {

struct Measurement {
  const char* name;
  double min;
  double max;
  double step;  // random-walk step magnitude per sample
};

// SensorScope-like environmental measurements with plausible ranges.
constexpr Measurement kMeasurements[] = {
    {"ambient_temperature", -10.0, 35.0, 0.2},
    {"surface_temperature", -15.0, 45.0, 0.3},
    {"relative_humidity", 0.0, 100.0, 0.8},
    {"solar_radiation", 0.0, 1200.0, 15.0},
    {"soil_moisture", 0.0, 100.0, 0.5},
    {"watermark", 0.0, 200.0, 1.0},
    {"rain_meter", 0.0, 50.0, 0.4},
    {"wind_speed", 0.0, 30.0, 0.6},
    {"wind_direction", 0.0, 360.0, 8.0},
};

constexpr size_t kNumMeasurements =
    sizeof(kMeasurements) / sizeof(kMeasurements[0]);

}  // namespace

SensorDataset::SensorDataset(SensorDatasetOptions options)
    : options_(options) {
  COSMOS_CHECK_GT(options_.num_stations, 0);
  COSMOS_CHECK_GT(options_.sampling_period, 0);
}

std::string SensorDataset::StreamName(int station) {
  return StrFormat("sensor_%02d", station);
}

std::vector<std::string> SensorDataset::MeasurementAttributes() {
  std::vector<std::string> names;
  names.reserve(kNumMeasurements);
  for (const auto& m : kMeasurements) names.emplace_back(m.name);
  return names;
}

std::shared_ptr<const Schema> SensorDataset::SchemaOf(int station) const {
  std::vector<AttributeDef> attrs;
  attrs.emplace_back("station_id", ValueType::kInt64, 0,
                     options_.num_stations - 1);
  for (const auto& m : kMeasurements) {
    attrs.emplace_back(m.name, ValueType::kDouble, m.min, m.max);
  }
  attrs.emplace_back("timestamp", ValueType::kInt64);
  return std::make_shared<Schema>(StreamName(station), std::move(attrs));
}

double SensorDataset::RatePerStation() const {
  return static_cast<double>(kSecond) /
         static_cast<double>(options_.sampling_period);
}

Status SensorDataset::RegisterAll(Catalog& catalog) const {
  for (int k = 0; k < options_.num_stations; ++k) {
    COSMOS_RETURN_IF_ERROR(
        catalog.RegisterStream(SchemaOf(k), RatePerStation(), /*publisher=*/k));
  }
  return Status::OK();
}

std::unique_ptr<StreamGenerator> SensorDataset::MakeGenerator(
    int station) const {
  COSMOS_CHECK(station >= 0 && station < options_.num_stations);
  auto schema = SchemaOf(station);

  Rng rng = Rng(options_.seed).Derive(static_cast<uint64_t>(station));

  // Initialize each measurement uniformly inside its range, then walk.
  double state[kNumMeasurements];
  for (size_t i = 0; i < kNumMeasurements; ++i) {
    state[i] = rng.NextDouble(kMeasurements[i].min, kMeasurements[i].max);
  }

  Timestamp start = 0;
  if (options_.stagger_stations) {
    start = rng.NextInt(0, options_.sampling_period - 1);
  }

  std::vector<Tuple> tuples;
  for (Timestamp ts = start; ts < options_.duration;
       ts += options_.sampling_period) {
    std::vector<Value> values;
    values.reserve(kNumMeasurements + 2);
    values.emplace_back(static_cast<int64_t>(station));
    for (size_t i = 0; i < kNumMeasurements; ++i) {
      const auto& m = kMeasurements[i];
      state[i] += rng.NextGaussian() * m.step;
      state[i] = std::clamp(state[i], m.min, m.max);
      values.emplace_back(state[i]);
    }
    values.emplace_back(static_cast<int64_t>(ts));
    tuples.emplace_back(schema, std::move(values), ts);
  }
  return std::make_unique<VectorGenerator>(schema, std::move(tuples));
}

std::unique_ptr<ReplayMerger> SensorDataset::MakeReplay() const {
  std::vector<std::unique_ptr<StreamGenerator>> gens;
  gens.reserve(static_cast<size_t>(options_.num_stations));
  for (int k = 0; k < options_.num_stations; ++k) {
    gens.push_back(MakeGenerator(k));
  }
  return std::make_unique<ReplayMerger>(std::move(gens));
}

}  // namespace cosmos
