#ifndef WEBEVO_TOOLS_CLI_FLAGS_H_
#define WEBEVO_TOOLS_CLI_FLAGS_H_

// The web and crawler-shape flags webevo_sim and webevo_query share. A
// value they do not know, or a number that is malformed or out of
// range, exits with code 2 and names the valid ones.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>

#include "crawler/update_module.h"
#include "simweb/web_config.h"
#include "util/flags.h"

namespace webevo::tools {

/// Prints `st` and exits with code 2 unless it is ok.
inline void ExitUnlessOk(const Status& st) {
  if (st.ok()) return;
  std::printf("%s\n", st.ToString().c_str());
  std::exit(2);
}

/// The value of the numeric flag --<name>, `fallback` when unset. The
/// whole value must parse as a T: a base-10 integer in [min, max] when
/// T is integral, else a finite number greater than `min` (a number of
/// days or a scale must be positive) and at most `max`. Anything else
/// exits with code 2 naming the flag and its value.
template <typename T>
T NumberFromFlags(const FlagParser& flags, const std::string& name,
                  T fallback, T min, T max = std::numeric_limits<T>::max()) {
  if (!flags.Has(name)) return fallback;
  const std::string text = flags.GetString(name, "");
  const char* end = text.data() + text.size();
  T value{};
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  bool ok = error == std::errc() && stop == end && value <= max;
  std::ostringstream expected;
  if constexpr (std::is_integral_v<T>) {
    ok = ok && value >= min;
    if (max == std::numeric_limits<T>::max()) {
      expected << "an integer >= " << min;
    } else {
      expected << "an integer from " << min << " to " << max;
    }
  } else {
    ok = ok && std::isfinite(value) && value > min;
    expected << "a number > " << min;
  }
  if (ok) return value;
  std::printf("invalid --%s value '%s' (%s)\n", name.c_str(), text.c_str(),
              expected.str().c_str());
  std::exit(2);
}

/// The simulated web of --seed, --scale, --faults and --adversarial.
/// A checkpoint must be read against the web it was written on, so
/// all four are shape flags for webevo_query.
inline simweb::WebConfig WebFromFlags(const FlagParser& flags) {
  simweb::WebConfig config = simweb::WebConfig().Scaled(
      NumberFromFlags(flags, "scale", 0.15, 0.0));
  config.seed = static_cast<uint64_t>(NumberFromFlags<int64_t>(
      flags, "seed", 19990217, std::numeric_limits<int64_t>::min()));
  config.max_site_size = 250;
  ExitUnlessOk(simweb::ApplyFaultScenario(flags.GetString("faults", "none"),
                                          &config));
  ExitUnlessOk(simweb::ApplyAdversarialScenario(
      flags.GetString("adversarial", "none"), &config));
  // --scale can ask for more sites than a PageId can address.
  ExitUnlessOk(config.Validate());
  return config;
}

/// The value of --<name>, `fallback` when unset. It must be one of
/// `valid`; anything else exits with code 2 naming the valid values.
inline std::string OneOfFromFlags(const FlagParser& flags,
                                  const std::string& name,
                                  const std::string& fallback,
                                  std::initializer_list<const char*> valid) {
  const std::string value = flags.GetString(name, fallback);
  std::string names;
  for (const char* v : valid) {
    if (value == v) return value;
    names += std::string(names.empty() ? "" : "|") + v;
  }
  std::printf("unknown --%s value '%s' (%s)\n", name.c_str(), value.c_str(),
              names.c_str());
  std::exit(2);
}

/// --crawler: "incremental" (the default) or "periodic".
inline std::string CrawlerFromFlags(const FlagParser& flags) {
  return OneOfFromFlags(flags, "crawler", "incremental",
                        {"incremental", "periodic"});
}

/// --policy and --estimator, the incremental crawler's revisit flags.
inline void UpdateFromFlags(const FlagParser& flags,
                            crawler::UpdateModuleConfig* update) {
  auto policy =
      crawler::ParseRevisitPolicy(flags.GetString("policy", "optimal"));
  ExitUnlessOk(policy.status());
  auto kind = estimator::ParseEstimatorKind(flags.GetString("estimator", "EB"));
  ExitUnlessOk(kind.status());
  update->policy = *policy;
  update->estimator_kind = *kind;
}

}  // namespace webevo::tools

#endif  // WEBEVO_TOOLS_CLI_FLAGS_H_
