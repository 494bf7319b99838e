#pragma once
// The uniform sensor-service interfaces of SenSORCER (§V.A):
// every sensor provider — elementary or composite — implements
// SensorDataAccessor, giving requestors one way to read any sensor on the
// network regardless of technology or aggregation level.

#include <string>
#include <vector>

#include "registry/service_item.h"
#include "sensor/reading.h"
#include "util/status.h"

namespace sensorcer::core {

/// Interface name exported by all sensor services (used in signatures and
/// lookup templates).
inline constexpr const char* kSensorDataAccessorType = "SensorDataAccessor";
/// Additional types for the two provider species.
inline constexpr const char* kElementaryServiceType = "ElementarySensorService";
inline constexpr const char* kCompositeServiceType = "CompositeSensorService";
/// The façade's type.
inline constexpr const char* kFacadeType = "SensorcerFacade";
/// The historian's type (the "DataCollection" service of federated sensor
/// networks: readings pushed by ESPs, queried over ranges).
inline constexpr const char* kDataCollectionType = "DataCollection";

/// Service-type tag shown in the browser ("Service Type:: COMPOSITE").
enum class SensorServiceKind { kElementary, kComposite };

const char* sensor_service_kind_name(SensorServiceKind kind);

/// The info card content of the paper's Fig 2/3 "Sensor Service Information"
/// panel.
struct SensorInfo {
  std::string name;
  SensorServiceKind kind = SensorServiceKind::kElementary;
  registry::ServiceId id;
  std::string measurement;               // "temperature", ...
  std::string unit;                      // "degC", ...
  std::vector<std::string> contained;    // composite: child service names
  std::string expression;                // composite: compute expression
  std::string location;
};

/// Uniform read interface.
class SensorDataAccessor {
 public:
  virtual ~SensorDataAccessor() = default;

  /// Current calibrated value of the (possibly composite) sensor.
  virtual util::Result<double> get_value() = 0;

  /// Current value with timestamp/quality/sequence.
  virtual util::Result<sensor::Reading> get_reading() = 0;

  /// Service self-description for browsers and management tools.
  [[nodiscard]] virtual SensorInfo info() const = 0;
};

/// Context paths used by sensor-service operations.
namespace path {
inline constexpr const char* kValue = "sensor/value";
inline constexpr const char* kTimestamp = "sensor/timestamp";
inline constexpr const char* kQuality = "sensor/quality";
inline constexpr const char* kUnit = "sensor/unit";
inline constexpr const char* kLogValues = "sensor/log/values";
inline constexpr const char* kLogSince = "sensor/log/since";
inline constexpr const char* kInfoName = "sensor/info/name";
inline constexpr const char* kInfoKind = "sensor/info/kind";
inline constexpr const char* kInfoMeasurement = "sensor/info/measurement";
inline constexpr const char* kExpression = "composite/expression";
inline constexpr const char* kComponentName = "composite/component";
// Historian paths (hist/): appendBatch inputs ride as parallel columns, so
// a chunk of n readings over any number of series marshals as a fixed set
// of entries (layout in hist/append_batch.h).
inline constexpr const char* kHistSensor = "hist/sensor";
inline constexpr const char* kHistCounts = "hist/counts";
inline constexpr const char* kHistFrom = "hist/from";
inline constexpr const char* kHistTo = "hist/to";
inline constexpr const char* kHistResolution = "hist/resolution";
inline constexpr const char* kHistPoints = "hist/points";
inline constexpr const char* kHistTimestamps = "hist/timestamps";
inline constexpr const char* kHistValues = "hist/values";
inline constexpr const char* kHistQualities = "hist/qualities";
inline constexpr const char* kHistCount = "hist/count";
inline constexpr const char* kHistMin = "hist/min";
inline constexpr const char* kHistMax = "hist/max";
inline constexpr const char* kHistSum = "hist/sum";
inline constexpr const char* kHistMean = "hist/mean";
inline constexpr const char* kHistLast = "hist/last";
inline constexpr const char* kHistAccepted = "hist/accepted";
inline constexpr const char* kHistDuplicates = "hist/duplicates";
inline constexpr const char* kHistSource = "hist/source";
inline constexpr const char* kHistFromEffective = "hist/from_effective";
inline constexpr const char* kHistToEffective = "hist/to_effective";
inline constexpr const char* kHistTruncated = "hist/truncated";
}  // namespace path

/// Operation selectors.
namespace op {
inline constexpr const char* kGetValue = "getValue";
inline constexpr const char* kGetReading = "getReading";
inline constexpr const char* kGetLog = "getLog";
inline constexpr const char* kGetInfo = "getInfo";
inline constexpr const char* kAddComponent = "addComponent";
inline constexpr const char* kRemoveComponent = "removeComponent";
inline constexpr const char* kSetExpression = "setExpression";
// Historian operations.
inline constexpr const char* kAppendBatch = "appendBatch";
inline constexpr const char* kHistStats = "histStats";
inline constexpr const char* kHistRange = "histRange";
inline constexpr const char* kHistDownsample = "histDownsample";
}  // namespace op

}  // namespace sensorcer::core
