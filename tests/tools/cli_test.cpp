// End-to-end tests of the dataset commands of the real dynaddr binary:
// simulate, convert and analyze on the quick preset. DYNADDR_CLI_PATH is
// injected by CMake.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// Runs `args` through the CLI with stdout and stderr captured to files;
/// returns the exit status.
int run_cli(const std::string& args, const fs::path& out, const fs::path& err) {
    const std::string command = std::string(DYNADDR_CLI_PATH) + " " + args +
                                " > " + out.string() + " 2> " + err.string();
    const int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

class Cli : public ::testing::Test {
protected:
    void SetUp() override {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = fs::temp_directory_path() /
               ("dynaddr_cli_" + std::to_string(::getpid()) + "_" + info->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    fs::path dir_;
};

// simulate (CSV) -> registry row with a quoted comma -> convert (DAB2) ->
// analyze both: the CSV directory takes the batch path, the DAB2 one is
// streamed, and both read the registry name whole.
TEST_F(Cli, CsvAndBinaryBundlesGiveIdenticalReports) {
    const fs::path csv_dir = dir_ / "csv";
    const fs::path bin_dir = dir_ / "bin";
    const fs::path log = dir_ / "log.txt";
    const fs::path err = dir_ / "err.txt";
    ASSERT_EQ(run_cli("simulate --preset quick --seed 7 --out " + csv_dir.string(),
                      log, err),
              0)
        << read_file(err);

    const fs::path registry = csv_dir / "registry.csv";
    std::istringstream rows(read_file(registry));
    std::ostringstream rewritten;
    bool renamed = false;
    for (std::string row; std::getline(rows, row);) {
        if (row.rfind("3320,", 0) == 0) {
            row = "3320,\"DTAG, Bonn\",DE,EU";
            renamed = true;
        }
        rewritten << row << "\n";
    }
    ASSERT_TRUE(renamed) << "quick preset has no AS 3320";
    std::ofstream(registry) << rewritten.str();

    ASSERT_EQ(run_cli("convert --in " + csv_dir.string() + " --out " +
                          bin_dir.string() + " --to binary",
                      log, err),
              0)
        << read_file(err);
    ASSERT_TRUE(fs::exists(bin_dir / "connection_log.dab"));
    ASSERT_FALSE(fs::exists(bin_dir / "connection_log.csv"));

    const fs::path batch = dir_ / "batch.txt";
    const fs::path streamed = dir_ / "streamed.txt";
    ASSERT_EQ(run_cli("analyze --report all --data " + csv_dir.string(), batch, err),
              0)
        << read_file(err);
    ASSERT_EQ(
        run_cli("analyze --report all --data " + bin_dir.string(), streamed, err), 0)
        << read_file(err);
    const std::string report = read_file(batch);
    EXPECT_NE(report.find("DTAG, Bonn"), std::string::npos) << report;
    EXPECT_EQ(report, read_file(streamed));
}

// The option is gone; an old command line must fail with one line instead
// of taking the next flag as its value.
TEST_F(Cli, RemovedStreamingOptionFailsWithOneLine) {
    const fs::path out = dir_ / "out.txt";
    const fs::path err = dir_ / "err.txt";
    for (const std::string& args :
         {"analyze --streaming --data " + dir_.string(),
          "analyze --data " + dir_.string() + " --streaming",
          "analyze --data " + dir_.string() + " --streaming=1"}) {
        EXPECT_EQ(run_cli(args, out, err), 1) << args;
        const std::string message = read_file(err);
        EXPECT_NE(message.find("--streaming"), std::string::npos) << message;
        EXPECT_EQ(message.find('\n'), message.size() - 1) << message;
    }
}

}  // namespace
