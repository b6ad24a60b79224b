// Android PackageManager subset: uid -> package/app name, the second half of
// the packet-to-app mapping (paper §2.2). Each installed app has a unique uid.
#ifndef MOPEYE_ANDROID_PACKAGE_MANAGER_H_
#define MOPEYE_ANDROID_PACKAGE_MANAGER_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mopdroid {

struct PackageInfo {
  int uid = 0;
  std::string package;  // "com.whatsapp"
  std::string label;    // "Whatsapp"
};

class PackageManager {
 public:
  // Installs a package; fails (returns false) if uid or package is taken.
  bool Install(int uid, const std::string& package, const std::string& label);
  void Uninstall(int uid);

  std::optional<PackageInfo> GetPackageForUid(int uid) const;
  std::optional<PackageInfo> GetPackageByName(const std::string& package) const;
  size_t size() const { return by_uid_.size(); }

 private:
  std::map<int, PackageInfo> by_uid_;
  std::map<std::string, int> by_name_;
};

}  // namespace mopdroid

#endif  // MOPEYE_ANDROID_PACKAGE_MANAGER_H_
