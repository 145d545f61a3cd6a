// Fixture: approach code (anything under src/core/) calling Env write
// entry points directly bypasses StoreBatch and must be flagged.
//
// Fixtures are linted, never compiled, so Env stays a forward declaration:
// declaring the methods here would itself match the (token-level) rule.
struct Env;

int Save(Env* env) {
  int s = env->WriteFile("blob", "payload");
  if (s != 0) return s;
  s = env->AppendToFile("manifest", "entry");
  return s;
}

// FileStore writes bypass StoreBatch just the same.
struct FileStore;

int SaveBlobs(FileStore* files, FileStore& store) {
  int s = files->Put("blob", "payload");
  if (s != 0) return s;
  s = store.PutString("arch", "spec");
  if (s != 0) return s;
  return files->Append("params", "chunk");
}

// Appending to a JSON array is not a store write and stays clean.
struct JsonValue;

void BuildLayout(JsonValue& dims) { dims.Append(3); }
